"""Volume-based token reward programs (the LooksRare / Rarible mechanism).

The paper (Sec. VI-A) describes the reward rule as

    R_A = a / b * c                                             (Eq. 1)

where ``a`` is the user's trading volume on a given day, ``b`` the total
venue volume that day and ``c`` the number of tokens emitted that day.
Users later call the ``claim`` function of a dedicated distributor
contract to receive the accrued tokens; the paper identifies those claim
transactions by their recipient address and values the tokens in USD on
the day of the claim.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.contracts.base import Contract
from repro.contracts.erc20 import ERC20Token

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.context import TxContext


@dataclass(frozen=True)
class RewardSchedule:
    """Emission schedule of a reward program.

    ``daily_emission`` is expressed in whole tokens per day and converted
    to the token's smallest units internally.
    """

    daily_emission: float
    start_day: int = 0
    end_day: Optional[int] = None

    def emission_on(self, day: int, decimals: int = 18) -> int:
        """Token units emitted on a given day index."""
        if day < self.start_day:
            return 0
        if self.end_day is not None and day > self.end_day:
            return 0
        return int(self.daily_emission * (10**decimals))


class RewardProgram:
    """Books per-day, per-account trading volume and computes rewards."""

    def __init__(self, venue_name: str, token: ERC20Token, schedule: RewardSchedule) -> None:
        self.venue_name = venue_name
        self.token = token
        self.schedule = schedule
        self._volume: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._total: Dict[int, int] = defaultdict(int)
        self._claimed_day: Dict[str, int] = defaultdict(lambda: -1)

    # -- volume booking ------------------------------------------------------
    def record_volume(self, account: str, volume_wei: int, day: int) -> None:
        """Add one trade leg's volume to an account's daily total."""
        if volume_wei <= 0:
            return
        self._volume[day][account] += volume_wei
        self._total[day] += volume_wei

    def volume_of(self, account: str, day: int) -> int:
        """Volume booked for an account on a day."""
        return self._volume.get(day, {}).get(account, 0)

    def total_volume(self, day: int) -> int:
        """Total venue volume booked on a day."""
        return self._total.get(day, 0)

    # -- reward computation -----------------------------------------------------
    def reward_for_day(self, account: str, day: int) -> int:
        """Token units earned by an account for one day (Eq. 1)."""
        total = self._total.get(day, 0)
        if total <= 0:
            return 0
        share = self._volume[day].get(account, 0)
        if share <= 0:
            return 0
        emission = self.schedule.emission_on(day, self.token.decimals)
        return emission * share // total

    def pending_rewards(self, account: str, current_day: int) -> int:
        """Unclaimed token units for every *completed* day before ``current_day``."""
        start = max(self._claimed_day[account] + 1, self.schedule.start_day)
        pending = 0
        for day in sorted(self._volume.keys()):
            if day < start or day >= current_day:
                continue
            pending += self.reward_for_day(account, day)
        return pending

    def mark_claimed(self, account: str, through_day: int) -> None:
        """Record that an account has claimed everything before ``through_day``."""
        self._claimed_day[account] = max(self._claimed_day[account], through_day - 1)


class RewardDistributor(Contract):
    """The claim contract users call to redeem accrued reward tokens.

    The paper identifies claim transactions as the transactions sent by a
    participating account *to this contract*, and takes the number of
    tokens obtained from the first claim after the activity -- both
    behaviours the simulation reproduces.
    """

    EXPOSED_FUNCTIONS = {"claim"}
    VIEW_FUNCTIONS = {"supportsInterface", "pendingOf"}

    def __init__(self, program: RewardProgram) -> None:
        super().__init__()
        self.program = program
        self.claims: list[tuple[str, int, int]] = []

    def pendingOf(self, account: str, current_day: int) -> int:
        """Pending (claimable) token units for an account."""
        return self.program.pending_rewards(account, current_day)

    def claim(self, ctx: "TxContext") -> int:
        """Mint every pending reward token to the caller.

        Reverts when nothing is claimable, mirroring the real distributor
        (a claim with an empty proof fails); the gas of the failed claim
        is still spent, which is one of the cost terms wash traders face.
        """
        from repro.utils.timeutil import day_of

        account = ctx.caller
        current_day = day_of(ctx.timestamp)
        amount = self.program.pending_rewards(account, current_day)
        ctx.require(amount > 0, "nothing to claim")
        self.program.token.mint_internal(ctx, account, amount)
        self.program.mark_claimed(account, current_day)
        self.claims.append((account, current_day, amount))
        return amount
