"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures from
the same default synthetic world (seed 42).  The world and the pipeline
run are session-scoped so each benchmark times only the analysis it is
about; ``bench_pipeline_scaling`` builds its own smaller worlds.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import PaperReport
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig

#: Detection backends the backend-parametrized benchmarks can compare.
#: "legacy" is the networkx reference path, "engine" the columnar
#: engine.
ALL_BACKENDS = ("legacy", "engine")

BACKEND_PIPELINE_KWARGS = {
    "legacy": {"engine": "legacy"},
    "engine": {"engine": "columnar"},
}


def pytest_report_header(config):
    """Record the world scale up front: benchmark numbers are
    meaningless without knowing how big the simulated worlds are."""
    scales = ", ".join(
        f"{name}={preset().duration_days}d x {preset().legit_sales_per_day}/day"
        for name, preset in (
            ("tiny", SimulationConfig.tiny),
            ("small", SimulationConfig.small),
            ("default", SimulationConfig),
        )
    )
    return [f"world scale: {scales}"]


def pytest_addoption(parser):
    parser.addoption(
        "--backends",
        default=",".join(ALL_BACKENDS),
        help=(
            "comma-separated detection backends to benchmark "
            f"(subset of {','.join(ALL_BACKENDS)}; default: all)"
        ),
    )
    parser.addoption(
        "--reorgs",
        action="store_true",
        help=(
            "run the reorg-recovery benchmark with a heavier reorg schedule "
            "(more rounds, deeper cuts) instead of the default smoke profile"
        ),
    )
    parser.addoption(
        "--smoke",
        action="store_true",
        help=(
            "shrink the heavy benchmarks to CI-sized workloads: "
            "bench_serve_load runs a tiny world with fewer query "
            "repetitions, bench_pipeline_scaling caps worlds at 'small' "
            "and runs fewer rounds"
        ),
    )
    parser.addoption(
        "--shards",
        default="1,2,4",
        help=(
            "comma-separated shard counts for bench_serve_load's "
            "scatter-gather comparison column (ascending, starting at "
            "1 -- the single-index baseline; default: 1,2,4)"
        ),
    )
    parser.addoption(
        "--wire",
        action="store_true",
        help=(
            "also run the over-the-wire serving benchmarks "
            "(bench_serve_load): TCP reader fleet against live ingest "
            "with parity sampled at pinned versions, and the "
            "wire-vs-in-process throughput comparison"
        ),
    )
    parser.addoption(
        "--obs",
        action="store_true",
        help=(
            "also run the observability overhead comparisons: the same "
            "streaming/serving workload instrumented (metrics registry "
            "+ spans) vs bare, asserting identical answers and, on the "
            "largest scaling world, <5% ingest overhead"
        ),
    )


@pytest.fixture
def reorg_profile(request):
    """Reorg schedule for ``bench_stream_monitor``'s recovery benchmark."""
    if request.config.getoption("--reorgs"):
        return {"rounds": 12, "depths": (1, 3, 8, 21, 55)}
    return {"rounds": 4, "depths": (2, 8, 21)}


@pytest.fixture
def wire_enabled(request):
    """Gate for the over-the-wire serving benchmarks (``--wire``)."""
    if not request.config.getoption("--wire"):
        pytest.skip("pass --wire to run the over-the-wire serving benchmarks")


@pytest.fixture
def obs_enabled(request):
    """Gate for the observability overhead comparisons (``--obs``)."""
    if not request.config.getoption("--obs"):
        pytest.skip("pass --obs to run the observability overhead comparisons")


@pytest.fixture(scope="session")
def scaling_profile(request):
    """World sizing for ``bench_pipeline_scaling`` (``--smoke`` shrinks it).

    ``largest`` names the world the backend acceptance checks run on;
    the smoke profile keeps CI inside a small world and fewer rounds.
    """
    if request.config.getoption("--smoke"):
        return {"worlds": ("tiny", "small"), "largest": "small", "rounds": 2}
    return {"worlds": ("tiny", "small", "default"), "largest": "default", "rounds": 3}


@pytest.fixture
def serve_profile(request):
    """Workload sizing for ``bench_serve_load`` (``--smoke`` shrinks it)."""
    if request.config.getoption("--smoke"):
        return {
            "preset": SimulationConfig.tiny,
            "aggregate_repeats": 6,
            "point_queries": 40,
            "query_threads": 2,
            "reorg_every": 3,
            "load_seconds": 0.4,
            "shard_ticks": 12,
            "smoke": True,
        }
    return {
        "preset": SimulationConfig.small,
        "aggregate_repeats": 12,
        "point_queries": 120,
        "query_threads": 4,
        "reorg_every": 3,
        "load_seconds": 1.5,
        "shard_ticks": 48,
        "smoke": False,
    }


@pytest.fixture
def shard_counts(request):
    """Shard counts for the scatter-gather comparison (``--shards``)."""
    raw = request.config.getoption("--shards")
    counts = tuple(int(part) for part in raw.split(",") if part.strip())
    if (
        not counts
        or counts[0] != 1
        or list(counts) != sorted(set(counts))
    ):
        raise pytest.UsageError(
            f"--shards must be an ascending list starting at 1, got {raw!r}"
        )
    return counts


def pytest_generate_tests(metafunc):
    if "backend" in metafunc.fixturenames:
        selected = [
            name.strip()
            for name in metafunc.config.getoption("--backends").split(",")
            if name.strip()
        ]
        unknown = [name for name in selected if name not in ALL_BACKENDS]
        if unknown:
            raise pytest.UsageError(
                f"unknown --backends entries {unknown}; expected {ALL_BACKENDS}"
            )
        metafunc.parametrize("backend", selected, ids=selected)


@pytest.fixture(scope="session")
def paper_world():
    """The default calibrated world used by every per-artifact benchmark."""
    return build_default_world(SimulationConfig())


@pytest.fixture(scope="session")
def paper_report(paper_world):
    """A cached full pipeline run over the default world."""
    report = PaperReport(paper_world)
    report.run()
    return report


def print_rows(title, headers, rows):
    """Print a regenerated artifact so it can be compared with the paper."""
    from repro.analysis.tables import format_table

    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))
