"""Shared chain-churn driver for the wire soak/reconnect batteries.

One place for the advance-against-a-reorganizing-head step the wire
tests repeat: when the monitor has caught the head, reorganize the tail
so there is always something adversarial to ingest, then advance a
random bounded stride (with an optional extra mid-sequence reorg).
:func:`follow_storm` is the in-process variant for head-following
checks: it holds the tail back and mines it in under reorg storms, and
:class:`CheckedMonitor` runs a check after each of its ticks.
"""

from __future__ import annotations

from repro.simulation.reorg import ReorgStorm, apply_random_reorg


def storm_tick(world, service, rng, extra_reorg: bool = False) -> None:
    """One monitor advance against a churning head."""
    if service.monitor.processed_block >= world.node.block_number:
        apply_random_reorg(
            world.chain, rng.randint(1, 10), rng, drop_probability=0.35
        )
    service.advance(
        min(
            world.node.block_number,
            service.monitor.processed_block + rng.randint(10, 60),
        )
    )
    if extra_reorg:
        apply_random_reorg(
            world.chain, rng.randint(1, 8), rng, drop_probability=0.3
        )


def drive_ticks(world, service, rng, ticks: int, reorg_every: int = 3) -> None:
    """Advance tick by tick, reorganizing every ``reorg_every`` ticks."""
    for tick in range(ticks):
        storm_tick(
            world,
            service,
            rng,
            extra_reorg=(tick % reorg_every == reorg_every - 1),
        )


#: :func:`follow_storm` holds back this many blocks and mines them in
#: rounds of FOLLOW_ROUND_BLOCKS.
FOLLOW_HELD_BLOCKS = 300
FOLLOW_ROUND_BLOCKS = 10


def follow_storm(world, monitor, rng) -> int:
    """Hold back the chain's last FOLLOW_HELD_BLOCKS blocks, then mine
    them in rounds, each followed to the head by a :class:`ReorgStorm`.
    Short rounds put the storm's reorgs on blocks the monitor already
    ingested, so tokens and accounts vanish.  ``monitor`` only needs
    ``processed_block`` and ``advance``; returns how many reorgs the
    storms applied."""
    chain = world.chain
    held = chain.reorg(FOLLOW_HELD_BLOCKS, [])
    monitor.advance()
    reorgs = 0
    for start in range(0, FOLLOW_HELD_BLOCKS, FOLLOW_ROUND_BLOCKS):
        # Re-installing the head block unchanged extends the chain.
        chain.reorg(
            1, [chain.blocks[-1], *held[start : start + FOLLOW_ROUND_BLOCKS]]
        )
        storm = ReorgStorm(
            world,
            rng,
            reorg_probability=0.5,
            max_depth=12,
            drop_probability=0.5,
            max_shorten=0,
            step_range=(2, 6),
        )
        reorgs += len(storm.run(monitor))
    return reorgs


class CheckedMonitor:
    """A monitor stand-in for :func:`follow_storm` that runs a check
    after every tick."""

    def __init__(self, monitor, after_tick) -> None:
        self._monitor = monitor
        self._after_tick = after_tick

    @property
    def processed_block(self) -> int:
        return self._monitor.processed_block

    def advance(self, to_block=None):
        snapshot = self._monitor.advance(to_block)
        self._after_tick()
        return snapshot
