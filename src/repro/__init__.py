"""Reproduction of "A Game of NFTs: Characterizing NFT Wash Trading in the
Ethereum Blockchain" (La Morgia et al., ICDCS 2023).

The package is organised in layers:

* :mod:`repro.chain` -- an in-memory Ethereum ledger (blocks, transactions,
  logs, accounts, gas) with a web3-like read API.
* :mod:`repro.contracts` -- ERC-20 / ERC-721 / ERC-1155 token contracts and
  the ERC-165 introspection used by the paper's compliance check.
* :mod:`repro.marketplaces` -- NFT marketplace contracts (OpenSea,
  LooksRare, Rarible, SuperRare, Foundation, Decentraland) including fee
  schedules, escrow and token reward programs.
* :mod:`repro.services` -- exchanges, DeFi services, the Etherscan-style
  label registry and the USD price oracle.
* :mod:`repro.ingest` -- dataset construction (Sec. III of the paper).
* :mod:`repro.core` -- the paper's contribution: per-NFT transaction
  graphs, SCC candidate search, refinement, the five confirmation
  techniques, characterization and profitability analysis (Sec. IV-VII).
* :mod:`repro.stream` -- the streaming monitor subsystem: incremental
  ingest following the chain head, dirty-token re-detection and a
  subscriber-facing alerting service (Sec. IX as a live watchdog).
* :mod:`repro.serve` -- the query/serving subsystem over the monitor: a
  versioned, snapshot-isolated read model, a concurrent wash-status
  query API with dirty-token-keyed aggregate caching, and replayable
  alert subscription cursors.
* :mod:`repro.verify` -- the one answer-parity check: the legacy oracle's
  reference result and the comparator every parity check decides with.
* :mod:`repro.simulation` -- a seeded synthetic workload generator that
  plants ground-truth wash trading in a full synthetic world.
* :mod:`repro.analysis` -- regenerates every table and figure of the
  paper's evaluation from a pipeline run.
"""

from repro.chain import Chain, EthereumNode
from repro.simulation import SimulationConfig, WorldBuilder, build_default_world
from repro.ingest import build_dataset
from repro.core import WashTradingPipeline, PipelineResult
from repro.analysis import PaperReport
from repro.stream import DatasetCursor, StreamingMonitor
from repro.serve import QueryService, ServeService

__version__ = "1.2.0"

__all__ = [
    "Chain",
    "EthereumNode",
    "SimulationConfig",
    "WorldBuilder",
    "build_default_world",
    "build_dataset",
    "WashTradingPipeline",
    "PipelineResult",
    "PaperReport",
    "DatasetCursor",
    "StreamingMonitor",
    "QueryService",
    "ServeService",
    "__version__",
]
