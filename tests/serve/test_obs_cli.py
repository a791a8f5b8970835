"""Subprocess tests of the observability CLI surface (ISSUE 9).

``repro probe`` and ``repro top`` against a live ``serve --listen``
node, the typed SLO_BREACH path forced end-to-end through the wire
(tiny error budget + a client hammering bad requests mid-ingest), and
the reporter's exactly-once final flush observed from outside on
SIGINT/SIGTERM -- the satellite regressions that need a real process
and real signals.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from tests.serve.test_wire_cli import wait_for_ingest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def spawn(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def run_cli(*args, timeout=120):
    proc = spawn(*args)
    out, err = proc.communicate(timeout=timeout)
    return proc.returncode, out, err


def wait_for_listen_line(proc) -> tuple:
    line = proc.stdout.readline()
    match = re.match(r"wire: listening on (\S+):(\d+)", line)
    assert match, f"expected the listening line first, got {line!r}"
    return match.group(1), int(match.group(2))


@pytest.fixture()
def serving():
    """A live ``serve --listen`` subprocess with SLOs armed."""
    proc = spawn(
        "serve",
        "--preset",
        "tiny",
        "--step-blocks",
        "50",
        "--listen",
        "127.0.0.1:0",
        "--slo-latency-p95",
        "30",
        "--slo-error-rate",
        "0.5",
    )
    try:
        host, port = wait_for_listen_line(proc)
        yield proc, host, port
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


class TestProbe:
    def test_healthy_node_is_exit_zero_with_json(self, serving):
        _, host, port = serving
        code, out, err = run_cli("probe", f"{host}:{port}")
        assert code == 0, (out, err)
        health = json.loads(out)
        assert health["status"] == "ok"
        assert health["ingest"]["crashed"] is False
        assert set(health["publish"]) == {
            "version",
            "published_seq",
            "log_seq",
            "lag_alerts",
        }
        assert "subscriber_queue_pressure" in health["wire"]
        assert set(health["slo"]) == {
            "alert-latency-total-p95",
            "wire-error-rate",
        }

    def test_quiet_probe_prints_nothing_on_stdout(self, serving):
        _, host, port = serving
        code, out, err = run_cli("probe", f"{host}:{port}", "--quiet")
        assert code == 0, err
        assert out == ""

    def test_unreachable_is_exit_two(self):
        code, out, err = run_cli("probe", "127.0.0.1:1", timeout=60)
        assert code == 2
        assert json.loads(out)["status"] == "unreachable"
        assert "unreachable" in err


class TestTop:
    def test_once_renders_a_snapshot(self, serving):
        _, host, port = serving
        code, out, err = run_cli("top", f"{host}:{port}", "--once")
        assert code == 0, (out, err)
        assert out.startswith("repro top")
        assert "status:" in out
        assert f"{host}:{port}" in out
        assert "slo      alert-latency-total-p95" in out
        # No ANSI clear in single-snapshot mode (pipable output).
        assert "\x1b[2J" not in out

    def test_once_json_is_machine_readable(self, serving):
        _, host, port = serving
        code, out, err = run_cli("top", f"{host}:{port}", "--once", "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert "metrics" in payload["stats"]
        assert payload["health"]["status"] in ("ok", "degraded")

    def test_unreachable_once_is_exit_two(self):
        code, out, err = run_cli("top", "127.0.0.1:1", "--once", timeout=60)
        assert code == 2
        assert "unreachable" in err


class TestForcedSLOBreach:
    def test_blown_error_budget_emits_typed_alert_and_degrades(self):
        """A tiny error budget plus a client hammering bad requests
        mid-ingest must blow the wire-error-rate budget: a SLO_BREACH
        alert lands on the wire alert log, the budget gauge pins >= 1,
        and the health surface drops to degraded (probe exit 1)."""
        from repro.serve.wire import WireClient, WireRequestError

        proc = spawn(
            "serve",
            "--preset",
            "tiny",
            "--step-blocks",
            "2",
            "--query-threads",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--slo-error-rate",
            "0.0001",
            "--slo-window",
            "4",
            "--slo-budget",
            "0.25",
            "--quiet",
        )
        try:
            host, port = wait_for_listen_line(proc)
            breach = None
            deadline = time.time() + 90
            with WireClient(host, port, timeout=10.0) as client:
                while breach is None and time.time() < deadline:
                    # Each round: a burst of guaranteed request errors
                    # for the evaluation interval to classify as bad...
                    for _ in range(5):
                        try:
                            client.request("token-status")  # missing params
                        except WireRequestError:
                            pass
                    # ...then check whether the breach got published.
                    log = client.alerts(since_seq=-1)
                    for alert in log["alerts"]:
                        if alert["kind"] == "slo-breach":
                            breach = alert
                            break
                assert breach is not None, "budget never blew within deadline"
                assert breach["slo"] == "wire-error-rate"
                assert breach["budget_used"] >= 1.0
                assert breach["detail"]
                assert breach["trace"]
                gauges = client.stats()["metrics"]["gauges"]
                assert gauges['slo_healthy{slo="wire-error-rate"}'] == 0
                assert gauges['slo_budget_used{slo="wire-error-rate"}'] >= 1.0
            # The blown budget shows on the health ladder.
            code, out, _ = run_cli("probe", f"{host}:{port}")
            assert code == 1, out
            assert json.loads(out)["status"] == "degraded"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()


class TestReporterShutdownRace:
    def _final_flush_count(self, signum, tmp_path):
        """Run serve with a never-firing stats interval; every ``stats:``
        line seen is therefore a final flush -- the exactly-once bar is
        observable as exactly one such line.  The signal is sent once the
        first ingest span is logged; the ``small`` preset in 2-block
        ticks keeps ingest running well past that (``tiny`` ingests in
        about a second, so the signal could land after the handlers
        were already restored)."""
        metrics_path = str(tmp_path / "metrics.prom")
        span_log = str(tmp_path / "spans.jsonl")
        proc = spawn(
            "serve",
            "--preset",
            "small",
            "--step-blocks",
            "2",
            "--query-threads",
            "1",
            "--stats-interval",
            "3600",
            "--metrics-out",
            metrics_path,
            "--log-json",
            span_log,
            "--quiet",
        )
        wait_for_ingest(proc, span_log)  # land mid-ingest, where the race lived
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (proc.returncode, err)
        assert "Traceback" not in err
        return out.count("stats:"), metrics_path

    def test_sigint_mid_ingest_flushes_exactly_once(self, tmp_path):
        from repro.obs import parse_prometheus

        flushes, metrics_path = self._final_flush_count(
            signal.SIGINT, tmp_path
        )
        assert flushes == 1
        # The flush also wrote a complete, parseable exposition.
        with open(metrics_path, encoding="utf-8") as handle:
            samples = parse_prometheus(handle.read())
        assert samples, "final flush left an empty exposition"

    def test_sigterm_mid_ingest_flushes_exactly_once(self, tmp_path):
        flushes, _ = self._final_flush_count(signal.SIGTERM, tmp_path)
        assert flushes == 1
