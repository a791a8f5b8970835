"""Periodic console stats for live `monitor` / `serve` runs.

:class:`PeriodicReporter` is a daemon thread that every ``interval``
seconds prints a one-line health summary built from a registry
snapshot, and (optionally) rewrites the Prometheus exposition file.
The CLI wires it behind ``--stats-interval`` / ``--metrics-out``; a
final report runs at shutdown so short runs still leave a snapshot.

The summary line is intentionally dense -- one glance answers "is
ingest moving, are alerts flowing, is the cache hitting, is the wire
keeping up":

    stats: blocks=1200 transfers=8410 alerts=37 reorgs=2
        tick_p50=3.1ms tick_p95=9.8ms cache_hit=92.4% wire_reqs=412
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.obs.exposition import write_prometheus
from repro.obs.registry import MetricsRegistry

__all__ = ["PeriodicReporter", "format_stats_line", "render_dashboard"]


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"


def format_stats_line(registry: MetricsRegistry) -> str:
    """One dense health line from a registry snapshot."""
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]

    parts = []
    blocks = counters.get("cursor_blocks_ingested_total")
    if blocks is not None:
        parts.append(f"blocks={int(blocks)}")
    transfers = counters.get("cursor_transfers_ingested_total")
    if transfers is not None:
        parts.append(f"transfers={int(transfers)}")
    alerts = sum(
        value for name, value in counters.items()
        if name.startswith("monitor_alerts_total")
    )
    if alerts:
        parts.append(f"alerts={int(alerts)}")
    reorgs = counters.get("cursor_reorgs_total")
    if reorgs:
        parts.append(f"reorgs={int(reorgs)}")
    tick = histograms.get("serve_tick_seconds") or histograms.get(
        'span_seconds{span="tick"}'
    )
    if tick and tick["count"]:
        parts.append(f"tick_p50={_ms(tick['p50'])}")
        parts.append(f"tick_p95={_ms(tick['p95'])}")
    hits = counters.get("serve_cache_hits_total")
    misses = counters.get("serve_cache_misses_total")
    if hits is not None and misses is not None and (hits + misses):
        parts.append(f"cache_hit={100.0 * hits / (hits + misses):.1f}%")
    wire_requests = sum(
        value for name, value in counters.items()
        if name.startswith("wire_requests_total")
    )
    if wire_requests:
        parts.append(f"wire_reqs={int(wire_requests)}")
    connections = gauges.get("wire_active_connections")
    if connections:
        parts.append(f"conns={int(connections)}")
    if not parts:
        parts.append("idle")
    return "stats: " + " ".join(parts)


#: Latency stages rendered by the dashboard, pipeline order.
_DASHBOARD_STAGES = ("schedule", "detect", "fanout", "deliver", "total")


def render_dashboard(stats: dict, health: dict, endpoint: str = "") -> str:
    """The ``repro top`` screen: one node's stats+health as plain text.

    Pure dict-in/str-out (the dicts are the ``stats`` and ``health``
    verb payloads) so the rendering is unit-testable without a socket.
    """
    metrics = stats.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    status = str(health.get("status", "unknown")).upper()
    lines = []
    title = "repro top"
    if endpoint:
        title += f" — {endpoint}"
    lines.append(f"{title} — status: {status}")

    ingest = health.get("ingest") or {}
    if ingest:
        processed = ingest.get("processed_block", -1)
        head = ingest.get("head_block", -1)
        state = (
            "crashed"
            if ingest.get("crashed")
            else "running" if ingest.get("running") else "done"
        )
        age = ingest.get("last_tick_age_seconds")
        age_part = "" if age is None else f"  last_tick={age:.1f}s ago"
        lines.append(
            f"ingest   block {processed}/{head} "
            f"(lag {ingest.get('lag_blocks', 0)})  "
            f"ticks {ingest.get('ticks', 0)}  [{state}]{age_part}"
        )
    tick = histograms.get("serve_tick_seconds") or histograms.get(
        'span_seconds{span="tick"}'
    )
    if tick and tick.get("count"):
        lines.append(
            f"ticks    p50 {_ms(tick['p50'])}  p95 {_ms(tick['p95'])}  "
            f"count {int(tick['count'])}"
        )

    alerts = sum(
        value
        for name, value in counters.items()
        if name.startswith("monitor_alerts_total")
    )
    publish = health.get("publish") or {}
    if alerts or publish:
        lines.append(
            f"alerts   total {int(alerts)}  "
            f"published_seq {publish.get('published_seq', -1)}  "
            f"publish_lag {publish.get('lag_alerts', 0)}"
        )

    stage_parts = []
    for stage in _DASHBOARD_STAGES:
        snapshot = histograms.get(f'alert_latency_seconds{{stage="{stage}"}}')
        if snapshot and snapshot.get("count"):
            stage_parts.append(f"{stage} {_ms(snapshot['p95'])}")
    if stage_parts:
        lines.append("latency  p95: " + "  ".join(stage_parts))

    wire = health.get("wire") or {}
    if wire:
        pressure = wire.get("subscriber_queue_pressure", 0.0)
        lines.append(
            f"wire     conns {wire.get('active_connections', 0)}  "
            f"subs {wire.get('active_subscribers', 0)}  "
            f"reqs {wire.get('requests', 0)} "
            f"(err {wire.get('request_errors', 0)})  "
            f"queue {pressure:.0%}"
        )

    slo = health.get("slo") or {}
    for name in sorted(slo):
        state = slo[name]
        verdict = "OK" if state.get("healthy") else "BREACHED"
        lines.append(
            f"slo      {name}: {verdict}  "
            f"budget {state.get('budget_used', 0.0):.0%}  "
            f"burn {state.get('burn_rate', 0.0):.2f}"
        )
    if not slo:
        healthy_gauges = {
            name: value
            for name, value in gauges.items()
            if name.startswith("slo_healthy")
        }
        for name in sorted(healthy_gauges):
            verdict = "OK" if healthy_gauges[name] else "BREACHED"
            lines.append(f"slo      {name}: {verdict}")
    return "\n".join(lines)


class PeriodicReporter:
    """Daemon thread: print a stats line (and rewrite the exposition
    file) every ``interval`` seconds until stopped."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float,
        emit: Callable[[str], None] = print,
        metrics_out: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry
        self.interval = interval
        self.emit = emit
        self.metrics_out = metrics_out
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Reports are serialized: a SIGINT/SIGTERM stop() can land while
        # the interval timer is mid-fire, and two interleaved
        # write_prometheus calls could race the same tmp file.
        self._report_lock = threading.Lock()
        self._final_done = False

    def _report_once(self) -> None:
        with self._report_lock:
            try:
                self.emit(format_stats_line(self.registry))
            except Exception:  # noqa: BLE001 - reporting must never kill the run
                pass
            if self.metrics_out:
                try:
                    write_prometheus(self.registry, self.metrics_out)
                except OSError:
                    pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._report_once()

    def start(self) -> "PeriodicReporter":
        self._thread = threading.Thread(
            target=self._run, name="obs-reporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_report: bool = True) -> None:
        """Stop the timer; run the final flush exactly once.

        Idempotent and safe against a mid-fire interval timer: the stop
        flag halts the loop, the join waits out any in-flight report,
        and the ``_final_done`` latch guarantees exactly one final
        report even when stop() is called from both a signal handler
        and a finally block.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=self.interval + 1.0)
        if final_report:
            with self._report_lock:
                if self._final_done:
                    return
                self._final_done = True
            self._report_once()
