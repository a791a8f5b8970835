"""The operator and scenario checks judge the live path against the oracle.

A mutant that skips contract removal in the single-token funnel -- the
code the batch engine and the streaming scheduler share, but the legacy
networkx pipeline does not -- must fail ``serve --verify`` and the
scenario parity verdicts.  A check against a columnar batch build would
run the same mutant on both sides and report parity.

A read-model mutant that appends each refreshed record instead of
replacing it in place serves the right counts and volumes; the checks
of the served version against its own alert log must still fail it.
"""

from __future__ import annotations

import pytest

import repro.engine.refine
import repro.serve.index
import repro.stream.scheduler
from repro.__main__ import main
from repro.simulation.scenarios import RunOptions, run_scenario


@pytest.fixture
def contract_removal_skipped(monkeypatch):
    real = repro.engine.refine.funnel_masks

    def mutant(service_ids, contract_ids, skip_service_removal=False, *_):
        return real(service_ids, contract_ids, skip_service_removal, True)

    monkeypatch.setattr(repro.engine.refine, "funnel_masks", mutant)
    monkeypatch.setattr(repro.stream.scheduler, "funnel_masks", mutant)


def test_serve_verify_fails_the_mutant(contract_removal_skipped, capsys):
    argv = ["serve", "--preset", "tiny", "--verify", "--query-threads", "0", "--quiet"]
    assert main(argv) == 2
    assert "parity mismatch: funnel stages diverge" in capsys.readouterr().err


def test_scenario_parity_fails_the_mutant(contract_removal_skipped):
    report = run_scenario(
        "reorg-storm-rush",
        RunOptions(speed=0, wire=False, evaluate_slos=False, raise_on_failure=False),
    )
    checks = {check.name: check.mismatches for check in report.parity}
    assert checks["stream-vs-batch"]
    assert checks["serve-vs-batch"]
    assert not report.ok


@pytest.fixture
def refreshes_appended(monkeypatch):
    def mutant(records, changes, added):
        kept = [r for r in records if r.seq not in changes]
        moved = [changes[r.seq] for r in records if changes.get(r.seq) is not None]
        return tuple(kept + moved + list(added))

    monkeypatch.setattr(repro.serve.index, "_fold", mutant)


def test_serve_verify_fails_the_fold_mutant(refreshes_appended, capsys):
    argv = ["serve", "--preset", "tiny", "--verify", "--query-threads", "0", "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "parity mismatch: confirmed listing is not in seq order" in err
    assert "containers do not hold their records" in err


def test_scenario_parity_fails_the_fold_mutant(refreshes_appended):
    report = run_scenario(
        "reorg-storm-rush",
        RunOptions(speed=0, wire=False, evaluate_slos=False, raise_on_failure=False),
    )
    checks = {check.name: check.mismatches for check in report.parity}
    assert not checks["stream-vs-batch"]
    assert any("seq order" in problem for problem in checks["serve-vs-batch"])
    assert not report.ok
