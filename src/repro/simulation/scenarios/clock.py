"""An accelerated simulated clock for scenario replays.

The synthetic histories span weeks of simulated time; replaying one in
real time is useless and replaying it unpaced exercises none of the
time-dependent machinery (background cadence, latency windows).  The
:class:`SimulatedClock` maps simulated timestamps onto wall time at a
configurable acceleration -- ``speed`` simulated seconds pass per wall
second -- so a full "day in the life" soak compresses into CI-smoke
seconds while still *pacing* the drive loop like a live chain would.

``speed=0`` disables pacing entirely (the benchmark/test mode).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["SimulatedClock"]


class SimulatedClock:
    """Maps simulated seconds to wall seconds at ``speed``:1.

    ``sleep`` and ``wall`` are injectable for tests; by default they are
    :func:`time.sleep` and :func:`time.monotonic`.  Individual sleeps
    are capped at ``max_sleep`` so a mis-specified speed cannot hang a
    replay for hours -- the clock simply falls behind and stops pacing.
    """

    def __init__(
        self,
        start_timestamp: float,
        speed: float = 0.0,
        max_sleep: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        wall: Callable[[], float] = time.monotonic,
    ) -> None:
        if speed < 0:
            raise ValueError("speed must be >= 0")
        self.start_timestamp = float(start_timestamp)
        self.speed = float(speed)
        self.max_sleep = float(max_sleep)
        self._sleep = sleep
        self._wall = wall
        self._wall_start = wall()
        self.total_slept = 0.0

    @property
    def paced(self) -> bool:
        """True when the clock actually paces the replay."""
        return self.speed > 0

    def now(self) -> float:
        """The current simulated timestamp, given elapsed wall time."""
        if not self.paced:
            return self.start_timestamp
        elapsed = self._wall() - self._wall_start
        return self.start_timestamp + elapsed * self.speed

    def pace(self, sim_timestamp: float) -> float:
        """Block until the wall clock reaches ``sim_timestamp``.

        Returns the seconds actually slept (0 when already past due or
        unpaced).  The replay loop calls this with each tick's head
        block timestamp, so tick cadence follows simulated time.
        """
        if not self.paced:
            return 0.0
        target_wall = (
            self._wall_start
            + (float(sim_timestamp) - self.start_timestamp) / self.speed
        )
        delay = target_wall - self._wall()
        if delay <= 0:
            return 0.0
        delay = min(delay, self.max_sleep)
        self._sleep(delay)
        self.total_slept += delay
        return delay
