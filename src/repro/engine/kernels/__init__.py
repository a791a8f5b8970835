"""Detection kernels: numpy/CSR refinement and compiled Tarjan SCC.

The hot loops of the detection path -- per-token SCC extraction and
mask refinement -- batched over flat CSR arrays with an optional C
kernel (see ``docs/architecture.md`` § Detection kernels).  Importing
this package requires numpy; the compiled Tarjan backend is optional
and degrades to a pure-Python walk (``REPRO_NO_CKERNEL=1`` forces the
fallback, :func:`kernel_available` reports what loaded).
"""

from repro.engine.kernels.context import CachingDetectionContext
from repro.engine.kernels.csr import batch_token_components
from repro.engine.kernels.refine import refine_tokens_kernel
from repro.engine.kernels.tarjan import (
    active_backend,
    force_fallback,
    kernel_available,
    tarjan_csr,
)

__all__ = [
    "CachingDetectionContext",
    "active_backend",
    "batch_token_components",
    "force_fallback",
    "kernel_available",
    "refine_tokens_kernel",
    "tarjan_csr",
]
