"""Names kept only because ``perfbench/`` still imports them.

The benchmark harness reads ``active_backend()`` for its run header and
imports :class:`CachingDetectionContext` from here.  Both go when the
benchmark drops its kernel columns.
"""

from repro.engine.context import CachingDetectionContext


def active_backend() -> str:
    """The detection backend's name for the benchmark's run header."""
    return "interpreted"


__all__ = ["CachingDetectionContext", "active_backend"]
