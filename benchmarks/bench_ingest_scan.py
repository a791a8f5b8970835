"""Experiment S-ingest -- dataset construction statistics (Sec. III).

The backend-parametrized case compares the ingest cost of the two
detection paths: the legacy path consumes the dataset as-is, while the
engine path additionally builds the interned columnar transfer store
(``--backends legacy,engine`` to compare).
"""

from __future__ import annotations

from benchmarks.conftest import print_rows
from repro.engine.store import ColumnarTransferStore
from repro.ingest.dataset import build_dataset


def test_ingest_scan(benchmark, paper_world):
    dataset = benchmark(
        build_dataset, paper_world.node, paper_world.marketplace_addresses
    )
    print_rows(
        "Dataset construction (Sec. III)",
        ["statistic", "value"],
        [
            ["ERC-721-shaped Transfer events", dataset.scan.event_count],
            ["emitting contracts", dataset.scan.contract_count],
            ["ERC-165 compliant contracts", dataset.compliance.compliant_count],
            ["compliance ratio", f"{dataset.compliance.compliance_ratio:.1%}"],
            ["NFTs with transfers", dataset.nft_count],
            ["transfers retained", dataset.transfer_count],
            ["involved accounts", len(dataset.involved_accounts())],
        ],
    )
    # Shape checks: most but not all emitting contracts are compliant
    # (the paper reports 96.8%), and the compliant set excludes the planted
    # non-compliant contracts.
    assert 0.8 < dataset.compliance.compliance_ratio < 1.0
    assert dataset.nft_count > 0
    assert dataset.transfer_count >= dataset.nft_count


def test_ingest_for_backend(benchmark, paper_world, backend):
    """Ingest cost per backend: dataset alone vs. dataset + columnar store."""
    def ingest():
        dataset = build_dataset(paper_world.node, paper_world.marketplace_addresses)
        if backend == "engine":
            dataset.columnar_store()
        return dataset

    dataset = benchmark(ingest)
    rows = [
        ["NFTs with transfers", dataset.nft_count],
        ["transfers retained", dataset.transfer_count],
    ]
    if backend == "engine":
        store = dataset.columnar_store()
        rows += [
            ["interned accounts", store.account_count],
            ["columnar tokens", store.token_count],
            ["columnar rows", store.transfer_count],
        ]
        assert store.transfer_count == dataset.transfer_count
        assert store.token_count == dataset.nft_count
    print_rows(f"Ingest path [{backend}]", ["statistic", "value"], rows)


def test_columnar_store_build(benchmark, paper_world):
    """Cost of the store build alone, over a prebuilt dataset."""
    dataset = build_dataset(paper_world.node, paper_world.marketplace_addresses)
    store = benchmark(ColumnarTransferStore.from_dataset, dataset)
    print_rows(
        "Columnar store build",
        ["statistic", "value"],
        [
            ["interned accounts", store.account_count],
            ["tokens", store.token_count],
            ["rows", store.transfer_count],
        ],
    )
    assert store.transfer_count == dataset.transfer_count
