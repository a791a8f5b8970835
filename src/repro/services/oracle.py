"""Daily USD price oracle.

Every dollar figure in the paper (Tables I-III, the per-collection wash
volumes, the gain/loss analysis) converts on-chain amounts to USD at the
price of the day the value moved.  The oracle provides deterministic
daily series for ETH and the marketplace reward tokens; their levels are
in the right ballpark for the 2021-2022 window but the exact values are
not meant to match history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.utils.currency import wei_to_eth
from repro.utils.timeutil import SECONDS_PER_DAY, SIMULATION_EPOCH, day_of


@dataclass(frozen=True)
class PriceSeries:
    """A deterministic daily USD price series.

    The price follows ``base * (1 + trend)^years`` modulated by two
    sinusoids (a slow market cycle and a faster wobble); all parameters
    are fixed so two runs agree to the last digit.
    """

    symbol: str
    base_usd: float
    yearly_growth: float = 0.0
    cycle_amplitude: float = 0.15
    cycle_period_days: float = 180.0
    wobble_amplitude: float = 0.05
    wobble_period_days: float = 11.0
    floor_usd: float = 0.01

    def price_on_day(self, day_index: int) -> float:
        """USD price on a given day index (days since the UNIX epoch)."""
        origin_day = SIMULATION_EPOCH // SECONDS_PER_DAY
        days_since_origin = day_index - origin_day
        years = days_since_origin / 365.0
        trend = self.base_usd * math.pow(1.0 + self.yearly_growth, years)
        cycle = 1.0 + self.cycle_amplitude * math.sin(
            2.0 * math.pi * days_since_origin / self.cycle_period_days
        )
        wobble = 1.0 + self.wobble_amplitude * math.sin(
            2.0 * math.pi * days_since_origin / self.wobble_period_days
        )
        return max(trend * cycle * wobble, self.floor_usd)

    def price_at(self, timestamp: int) -> float:
        """USD price at a timestamp (constant within a day)."""
        return self.price_on_day(day_of(timestamp))


class PriceOracle:
    """Registry of price series, with wei and token-unit conversions."""

    def __init__(self) -> None:
        self._series: Dict[str, PriceSeries] = {}
        self.register(PriceSeries(symbol="ETH", base_usd=2600.0, yearly_growth=0.45))
        self.register(PriceSeries(symbol="WETH", base_usd=2600.0, yearly_growth=0.45))
        self.register(
            PriceSeries(symbol="LOOKS", base_usd=3.8, yearly_growth=-0.35, cycle_amplitude=0.3)
        )
        self.register(
            PriceSeries(symbol="RARI", base_usd=18.0, yearly_growth=-0.2, cycle_amplitude=0.25)
        )
        self.register(PriceSeries(symbol="USDC", base_usd=1.0, cycle_amplitude=0.0, wobble_amplitude=0.0))

    def register(self, series: PriceSeries) -> None:
        """Add or replace a price series."""
        self._series[series.symbol] = series

    def has_symbol(self, symbol: str) -> bool:
        """True if a series exists for the symbol."""
        return symbol in self._series

    def usd_price(self, symbol: str, timestamp: int) -> float:
        """USD price of one unit of ``symbol`` at ``timestamp``."""
        if symbol not in self._series:
            raise KeyError(f"no price series for {symbol}")
        return self._series[symbol].price_at(timestamp)

    def token_to_usd(self, symbol: str, amount: float, timestamp: int) -> float:
        """Convert a token amount (whole units) to USD at a timestamp."""
        return amount * self.usd_price(symbol, timestamp)

    def wei_to_usd(self, amount_wei: int, timestamp: int) -> float:
        """Convert an ETH amount in wei to USD at a timestamp."""
        return wei_to_eth(amount_wei) * self.usd_price("ETH", timestamp)
