"""The columnar detection engine.

A production-oriented execution path for the Sec. IV detection stack,
layered as:

* :mod:`repro.engine.store` -- :class:`ColumnarTransferStore`, interned
  accounts and flat per-NFT transfer columns built once per dataset.
* :mod:`repro.engine.refine` -- mask-based candidate search and
  refinement; exclusion stages are integer-set masks over the columns
  instead of graph rebuilds.  ``refine_token`` is the single-token
  funnel that both the batch executor and the streaming scheduler run.
* :mod:`repro.engine.context` -- :class:`CachingDetectionContext`, the
  per-account money-flow cache the detectors read through, in batch
  and live alike.
* :mod:`repro.engine.executor` -- one serial pass: refine every token,
  confirm each candidate, then apply the repeated-SCC rule.

This is the one production engine.  The legacy networkx implementation
in :mod:`repro.core` remains the reference;
``WashTradingPipeline(engine="columnar")`` selects this one, and the
parity tests in ``tests/engine`` pin the two to identical output.
"""

from repro.engine.context import CachingDetectionContext
from repro.engine.executor import (
    AccountSetPredicate,
    run_columnar_pipeline,
)
from repro.engine.refine import (
    STAGE_NAMES,
    ShardRefinement,
    StageAccumulator,
    TokenComponent,
    refine_tokens,
    token_components,
)
from repro.engine.store import ColumnarTransferStore, TokenColumns

__all__ = [
    "AccountSetPredicate",
    "CachingDetectionContext",
    "ColumnarTransferStore",
    "STAGE_NAMES",
    "ShardRefinement",
    "StageAccumulator",
    "TokenColumns",
    "TokenComponent",
    "refine_tokens",
    "run_columnar_pipeline",
    "token_components",
]
