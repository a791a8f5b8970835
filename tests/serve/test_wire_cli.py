"""Subprocess tests of the wire CLI surface and the graceful shutdown.

The shutdown satellite of ISSUE 5: ``python -m repro serve`` on
``SIGINT``/``SIGTERM`` must close the listener, drain in-flight
requests, join ingest and exit 0 -- previously the threaded loop could
die with a ``KeyboardInterrupt`` traceback.  Signal delivery only works
on a real process, so these tests drive the CLI through ``subprocess``;
the ``query`` CLI assertions double as the wire-smoke recipe CI runs.
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


def wait_for_ingest(proc, span_log, timeout=90.0) -> None:
    """Block until ``serve --log-json span_log`` has logged an ``ingest``
    span, i.e. ingest is under way (a fixed sleep races process start-up
    on a loaded host)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            pytest.fail(f"serve exited before ingest started: {err or out}")
        try:
            with open(span_log, encoding="utf-8") as handle:
                lines = handle.read().split("\n")[:-1]  # complete lines only
        except FileNotFoundError:
            lines = []
        if any(json.loads(line)["span"] == "ingest" for line in lines if line):
            return
        time.sleep(0.05)
    pytest.fail(f"no ingest span within {timeout} s")


def wait_for_listen_line(proc) -> tuple:
    line = proc.stdout.readline()
    match = re.match(r"wire: listening on (\S+):(\d+)", line)
    assert match, f"expected the listening line first, got {line!r}"
    return match.group(1), int(match.group(2))


@pytest.fixture()
def serving():
    """A live ``serve --listen`` subprocess; yields (proc, host, port)."""
    proc = spawn(
        "serve",
        "--preset",
        "tiny",
        "--step-blocks",
        "50",
        "--listen",
        "127.0.0.1:0",
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


class TestGracefulShutdown:
    def test_sigint_mid_ingest_exits_zero_without_traceback(self, tmp_path):
        # Small ticks over the small world, interrupted once the first
        # ingest span is logged, so the signal lands mid-ingest; a
        # post-ingest interrupt must behave the same.  --verify rides
        # along: against a partial prefix it must be skipped (with a
        # note), never reported as a parity failure.
        span_log = str(tmp_path / "spans.jsonl")
        proc = spawn(
            "serve",
            "--preset",
            "small",
            "--step-blocks",
            "2",
            "--query-threads",
            "2",
            "--verify",
            "--log-json",
            span_log,
        )
        wait_for_ingest(proc, span_log)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (proc.returncode, err)
        assert "Traceback" not in err
        assert "KeyboardInterrupt" not in err
        assert "parity mismatch" not in err
        assert "/serve]" in out  # the summary still prints

    def test_ingest_crash_reports_failure_not_traceback(self, monkeypatch, capsys):
        """A crashed ingest thread is exit 2 + message, even with --listen."""
        from repro.__main__ import main
        from repro.stream.monitor import StreamingMonitor

        def explode(self, to_block=None):
            raise RuntimeError("synthetic ingest crash")

        monkeypatch.setattr(StreamingMonitor, "advance", explode)
        code = main(
            ["serve", "--preset", "tiny", "--listen", "127.0.0.1:0", "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "ingest failed" in captured.err
        assert "synthetic ingest crash" in captured.err

    def test_sigint_while_listening_drains_and_exits_zero(self, serving):
        proc, host, port = serving
        # Wait until ingest finished and the server is in its linger
        # phase, then interrupt.
        code, out, err = run_cli(
            "query", "--connect", f"{host}:{port}", "ping"
        )
        assert code == 0, err
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (proc.returncode, err)
        assert "Traceback" not in err
        assert "wire: shut down cleanly" in out

    def test_sigterm_is_graceful_too(self):
        proc = spawn(
            "serve",
            "--preset",
            "tiny",
            "--step-blocks",
            "50",
            "--listen",
            "127.0.0.1:0",
            "--quiet",
        )
        wait_for_listen_line(proc)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (proc.returncode, err)
        assert "Traceback" not in err


class TestQueryCli:
    def test_query_verbs_against_live_server(self, serving):
        proc, host, port = serving
        connect = ("--connect", f"{host}:{port}")

        code, out, err = run_cli("query", *connect, "ping")
        assert code == 0 and json.loads(out)["pong"] is True

        # Poll until ingest has confirmed something.
        deadline = time.time() + 60
        while True:
            code, out, err = run_cli("query", *connect, "version")
            assert code == 0, err
            version = json.loads(out)
            if version["confirmed_activity_count"] > 0:
                break
            assert time.time() < deadline, "ingest never confirmed anything"
            time.sleep(0.5)

        code, out, _ = run_cli("query", *connect, "token-status", "0x" + "9" * 40, "7")
        assert code == 0 and json.loads(out)["is_washed"] is False

        code, out, _ = run_cli("query", *connect, "list", "--limit", "3")
        page = json.loads(out)
        assert code == 0 and len(page["records"]) <= 3
        assert page["total_matched"] >= len(page["records"])

        code, out, _ = run_cli("query", *connect, "collections")
        collections = json.loads(out)["collections"]
        assert code == 0 and collections
        code, out, _ = run_cli("query", *connect, "collection", collections[0])
        assert code == 0 and json.loads(out)["contract"] == collections[0]

        code, out, _ = run_cli("query", *connect, "funnel")
        assert code == 0 and len(json.loads(out)["stages"]) == 4

        code, out, _ = run_cli("query", *connect, "alerts", "--limit", "2")
        assert code == 0 and len(json.loads(out)["alerts"]) == 2

        code, out, _ = run_cli(
            "query", *connect, "subscribe", "--since-seq", "-1", "--max-alerts", "3"
        )
        lines = out.strip().splitlines()
        assert code == 0 and [json.loads(line)["seq"] for line in lines] == [0, 1, 2]

    def test_query_server_error_is_exit_2(self, serving):
        _, host, port = serving
        code, out, err = run_cli(
            "query",
            "--connect",
            f"{host}:{port}",
            "list",
            "--method",
            "mind-reading",
        )
        assert code == 2
        assert "bad-request" in err

    def test_query_connection_refused_is_exit_1(self):
        code, out, err = run_cli(
            "query", "--connect", "127.0.0.1:1", "ping", timeout=60
        )
        assert code == 1
        assert "cannot connect" in err
