"""Experiment S-detect -- per-method confirmation counts (Sec. IV-C)."""

from __future__ import annotations

from benchmarks.conftest import print_rows
from repro.core.activity import DetectionMethod
from repro.core.detectors.pipeline import WashTradingPipeline


def test_detection_method_counts(benchmark, paper_report):
    counts = benchmark(paper_report.result.count_by_method)
    funder_kinds = paper_report.result.funder_kind_counts()
    exit_kinds = paper_report.result.exit_kind_counts()
    print_rows(
        "Confirmation technique counts (Sec. IV-C)",
        ["method", "activities confirmed"],
        [[method.value, count] for method, count in sorted(counts.items(), key=lambda kv: kv[0].value)],
    )
    print_rows(
        "Common funder / exit internal vs external split",
        ["technique", "internal", "external"],
        [
            ["common-funder", funder_kinds["internal"], funder_kinds["external"]],
            ["common-exit", exit_kinds["internal"], exit_kinds["external"]],
        ],
    )
    # Shape checks: funder and exit confirm most activities, zero-risk is a
    # small class, self-trades exist.
    assert counts[DetectionMethod.COMMON_FUNDER] > counts.get(DetectionMethod.ZERO_RISK, 0)
    assert counts[DetectionMethod.COMMON_EXIT] > counts.get(DetectionMethod.ZERO_RISK, 0)
    assert counts.get(DetectionMethod.SELF_TRADE, 0) > 0


def test_volume_match_ablation(benchmark, paper_world, paper_report):
    """Opting into the volume-matching detector adds confirmations without
    disturbing any of the paper's five techniques (columnar engine)."""
    methods = frozenset(DetectionMethod.paper_methods()) | {
        DetectionMethod.VOLUME_MATCH
    }
    pipeline = WashTradingPipeline(
        labels=paper_world.labels,
        is_contract=paper_world.is_contract,
        engine="columnar",
        enabled_methods=methods,
    )
    from repro.ingest.dataset import build_dataset

    dataset = build_dataset(paper_world.node, paper_world.marketplace_addresses)
    result = benchmark.pedantic(
        lambda: pipeline.run(dataset), iterations=1, rounds=3
    )
    counts = result.count_by_method()
    baseline = paper_report.result.count_by_method()
    print_rows(
        "Confirmation counts with volume matching enabled (columnar engine)",
        ["method", "activities confirmed"],
        [
            [method.value, count]
            for method, count in sorted(counts.items(), key=lambda kv: kv[0].value)
        ],
    )
    assert counts.get(DetectionMethod.VOLUME_MATCH, 0) > 0
    for method in DetectionMethod.paper_methods():
        assert counts.get(method, 0) == baseline.get(method, 0)
