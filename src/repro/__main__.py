"""Command-line entry point: ``python -m repro``.

Two subcommands share the synthetic-world presets:

* ``run`` (the default) builds a world, runs the full batch pipeline and
  prints the reproduction report -- every table and figure of the
  paper's evaluation.  For back-compat the subcommand may be omitted:
  ``python -m repro --preset small`` behaves exactly as before.
* ``monitor`` follows the same world's chain block-by-block through the
  streaming monitor subsystem (:mod:`repro.stream`), printing alerts as
  NFTs are flagged and a per-tick summary -- the paper's Sec. IX
  marketplace watchdog as a command.
* ``serve`` runs the monitor loop and a threaded query front end
  together (:mod:`repro.serve`): an ingest thread follows the chain
  while query workers hammer the versioned wash-status API, then
  reports throughput, cache efficiency and (with ``--verify``) full
  serving parity against the legacy oracle's batch build.  With ``--listen HOST:PORT``
  it additionally serves the wire protocol
  (:mod:`repro.serve.wire`) beside ingest and keeps serving until
  interrupted; ``SIGINT``/``SIGTERM`` trigger a graceful shutdown --
  listener closed, in-flight requests drained, ingest joined, exit 0.
* ``query`` drives a running wire server from the command line: point
  lookups, listings, rollups, the funnel, the alert log, and a live
  ``subscribe`` stream, each printed as JSON.
* ``probe`` health-checks a running wire server and exits 0/1/2
  (ok/degraded/unhealthy-or-unreachable) for scripting.
* ``top`` is a curses-free live dashboard over the ``stats`` and
  ``health`` verbs (``--once`` for a single snapshot).
* ``scenario`` replays a registered adversarial scenario
  (:mod:`repro.simulation.scenarios`) against the full live stack --
  ingest, the serving path and the wire tier
  together -- under an accelerated clock, asserting
  batch/stream/serve/wire parity and per-phase alert-latency SLOs.
  ``--list`` prints the catalogue; exit 0 = every bar held, 1 = the
  typed per-phase report shows what broke.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import Optional, Sequence, Tuple

from repro.analysis.report import PaperReport
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig

PRESETS = {
    "tiny": SimulationConfig.tiny,
    "small": SimulationConfig.small,
    "default": SimulationConfig,
}

#: Recognized subcommands with their one-line summaries (the ``--help``
#: epilog); a bare flag list falls through to ``run``.
COMMAND_SUMMARIES = (
    ("run", "batch reproduction: build a world, print the paper report (default)"),
    ("monitor", "follow the chain through the streaming monitor, printing alerts"),
    ("serve", "streaming monitor plus a threaded query front end and wire server"),
    ("query", "query a running wire server; answers print as JSON"),
    ("probe", "health-check a running wire server; exit 0/1/2"),
    ("top", "live dashboard over a running wire server"),
    ("scenario", "replay an adversarial scenario against the full live stack"),
)
COMMANDS = tuple(name for name, _ in COMMAND_SUMMARIES)


def parse_endpoint(value: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` endpoint (``:PORT`` binds localhost)."""
    host, separator, port_text = value.rpartition(":")
    if not separator:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} out of range")
    return (host or "127.0.0.1", port)


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    """The world-selection flags shared by both subcommands."""
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="small",
        help="size of the synthetic world to build (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the world's random seed"
    )
    parser.add_argument(
        "--volume-match",
        action="store_true",
        help=(
            "also run the sliding-window volume-matching detector beside "
            "the paper's confirmation funnel (off by default so headline "
            "numbers match the paper's five techniques)"
        ),
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by ``monitor`` and ``serve``."""
    parser.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "print a one-line metrics summary every SECONDS while the "
            "service runs (and rewrite --metrics-out at the same cadence)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write a Prometheus-style text exposition of every metric to "
            "PATH (rewritten per --stats-interval tick and at shutdown)"
        ),
    )
    parser.add_argument(
        "--log-json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "append structured JSON-lines span records (one timed stage "
            "per line: ingest, refine, detect, publish, fanout...) to PATH"
        ),
    )


class _ObsSession:
    """CLI lifecycle around one registry: sinks, reporter, final dump."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.obs import JsonLinesSink, MetricsRegistry, PeriodicReporter

        self.registry = MetricsRegistry()
        self.metrics_out: Optional[str] = getattr(args, "metrics_out", None)
        self.sink = None
        if getattr(args, "log_json", None):
            self.sink = JsonLinesSink(args.log_json)
            self.registry.add_span_sink(self.sink)
        self.reporter = None
        if getattr(args, "stats_interval", None):
            self.reporter = PeriodicReporter(
                self.registry,
                interval=args.stats_interval,
                metrics_out=self.metrics_out,
            ).start()

    def finish(self) -> None:
        """Final stats line (if periodic), exposition dump, sink close."""
        if self.reporter is not None:
            self.reporter.stop(final_report=True)
        elif self.metrics_out:
            from repro.obs import write_prometheus

            try:
                write_prometheus(self.registry, self.metrics_out)
            except OSError as error:
                print(f"cannot write {self.metrics_out}: {error}", file=sys.stderr)
        if self.sink is not None:
            self.sink.close()


def _enabled_methods(args: argparse.Namespace):
    """The detection-method set a parsed command line asks for.

    ``None`` keeps each subsystem's default (the paper's five
    techniques); ``--volume-match`` adds the opt-in detector on top.
    """
    if not getattr(args, "volume_match", False):
        return None
    from repro.core.activity import DetectionMethod

    return frozenset(DetectionMethod.paper_methods()) | {
        DetectionMethod.VOLUME_MATCH
    }


def build_parser() -> argparse.ArgumentParser:
    """The ``run`` (batch reproduction) command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'A Game of NFTs: Characterizing NFT Wash Trading in the\n"
            "Ethereum Blockchain' on a synthetic world."
        ),
        epilog="commands (see 'repro COMMAND --help'):\n"
        + "\n".join(f"  {name:<10}{summary}" for name, summary in COMMAND_SUMMARIES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_world_arguments(parser)
    parser.add_argument(
        "--output", type=str, default=None, help="also write the report to this file"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help=(
            "print only the summary line; combined with --output, suppress "
            "terminal output entirely (only the file copy is written)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=sorted(WashTradingPipeline.ENGINES),
        default="legacy",
        help=(
            "detection backend: 'legacy' runs the networkx reference "
            "implementation, 'columnar' the production engine: the "
            "single-token funnel on a money-flow cache (default: legacy)"
        ),
    )
    return parser


def build_monitor_parser() -> argparse.ArgumentParser:
    """The ``monitor`` (streaming watchdog) command-line interface."""
    from repro.stream import DEFAULT_MAX_REORG_DEPTH

    parser = argparse.ArgumentParser(
        prog="repro monitor",
        description=(
            "Follow a synthetic world's chain through the streaming monitor, "
            "printing wash trading alerts as blocks arrive (Sec. IX)."
        ),
    )
    _add_world_arguments(parser)
    parser.add_argument(
        "--step-blocks",
        type=int,
        default=25,
        help="blocks ingested per monitor tick (default: 25)",
    )
    parser.add_argument(
        "--watch",
        action="append",
        default=[],
        metavar="ACCOUNT",
        help="watchlist an account address (repeatable)",
    )
    parser.add_argument(
        "--max-reorg-depth",
        type=int,
        default=DEFAULT_MAX_REORG_DEPTH,
        metavar="BLOCKS",
        help=(
            "rollback journal window, in blocks below the highest processed "
            "head; reorgs reaching below it cannot be repaired in place "
            f"(default: {DEFAULT_MAX_REORG_DEPTH})"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the final summary line, not the alert stream",
    )
    _add_obs_arguments(parser)
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` (query service) command-line interface."""
    from repro.stream import DEFAULT_MAX_REORG_DEPTH

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the streaming monitor and a threaded wash-status query "
            "front end together over a synthetic world: ingest follows the "
            "chain while query workers exercise the versioned serving API."
        ),
    )
    _add_world_arguments(parser)
    parser.add_argument(
        "--step-blocks",
        type=int,
        default=25,
        help="blocks ingested per monitor tick (default: 25)",
    )
    parser.add_argument(
        "--query-threads",
        type=int,
        default=4,
        help="concurrent query worker threads (default: 4)",
    )
    parser.add_argument(
        "--max-reorg-depth",
        type=int,
        default=DEFAULT_MAX_REORG_DEPTH,
        metavar="BLOCKS",
        help="rollback journal window passed to the monitor",
    )
    parser.add_argument(
        "--watch",
        action="append",
        default=[],
        metavar="ACCOUNT",
        help="watchlist an account address (repeatable)",
    )
    parser.add_argument(
        "--listen",
        type=parse_endpoint,
        default=None,
        metavar="HOST:PORT",
        help=(
            "also serve the wire protocol on this TCP endpoint (port 0 "
            "picks a free port, printed on startup) and keep serving "
            "after ingest completes until SIGINT/SIGTERM"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after ingest, check the live result and every query answer "
            "against the legacy oracle's batch build -- and, with --listen, "
            "every wire answer against the in-process service through the "
            "socket (exit 2 on any mismatch)"
        ),
    )
    parser.add_argument(
        "--expect-confirmed",
        action="store_true",
        help="exit 1 unless the final confirmed activity set is non-empty",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the final summary line",
    )
    slo = parser.add_argument_group(
        "service-level objectives",
        "evaluated once per tick; a blown error budget emits a typed "
        "SLO_BREACH alert on the wire and flips the health verb to "
        "'degraded'",
    )
    slo.add_argument(
        "--slo-latency-p95",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "objective: p95 end-to-end alert latency (block-seen to "
            "socket-write) stays under SECONDS"
        ),
    )
    slo.add_argument(
        "--slo-error-rate",
        type=float,
        default=None,
        metavar="RATIO",
        help="objective: wire error rate stays under RATIO (e.g. 0.01)",
    )
    slo.add_argument(
        "--slo-window",
        type=int,
        default=32,
        metavar="TICKS",
        help="rolling evaluation window, in ticks (default: 32)",
    )
    slo.add_argument(
        "--slo-budget",
        type=float,
        default=0.1,
        metavar="FRACTION",
        help=(
            "error budget: fraction of window evaluations allowed to "
            "miss before the objective breaches (default: 0.1)"
        ),
    )
    _add_obs_arguments(parser)
    return parser


def build_probe_parser() -> argparse.ArgumentParser:
    """The ``probe`` (scriptable health check) command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro probe",
        description=(
            "Health-check a running wire server: print the health verb's "
            "JSON and exit 0 (ok), 1 (degraded) or 2 (unhealthy or "
            "unreachable) -- suitable for liveness/readiness scripting."
        ),
    )
    parser.add_argument(
        "endpoint",
        type=parse_endpoint,
        metavar="HOST:PORT",
        help="wire server endpoint (':PORT' probes localhost)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="socket timeout in seconds (default: 5)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the JSON payload; communicate via exit code only",
    )
    return parser


def run_probe(argv: Sequence[str]) -> int:
    """One health round-trip, mapped onto an exit code."""
    from repro.serve.wire import WireClient

    args = build_probe_parser().parse_args(argv)
    host, port = args.endpoint
    try:
        with WireClient(host, port, timeout=args.timeout) as client:
            health = client.health()
    except Exception as error:  # noqa: BLE001 - any failure means "down"
        if not args.quiet:
            print(
                json.dumps(
                    {"status": "unreachable", "error": str(error)},
                    sort_keys=True,
                )
            )
        print(f"probe: {host}:{port} unreachable: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(json.dumps(health, indent=2, sort_keys=True))
    status = health.get("status")
    if status == "ok":
        return 0
    if status == "degraded":
        return 1
    return 2


def build_top_parser() -> argparse.ArgumentParser:
    """The ``top`` (live dashboard) command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Live terminal dashboard for a running wire server: polls the "
            "stats and health verbs and renders ingest progress, tick and "
            "alert latency, wire pressure and SLO budgets (curses-free; "
            "plain ANSI refresh)."
        ),
    )
    parser.add_argument(
        "endpoint",
        type=parse_endpoint,
        metavar="HOST:PORT",
        help="wire server endpoint (':PORT' watches localhost)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit (no screen clearing)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the raw stats+health dicts as one JSON object per poll",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="socket timeout in seconds (default: 5)",
    )
    return parser


def run_top(argv: Sequence[str]) -> int:
    """Poll stats+health and redraw the dashboard until interrupted."""
    from repro.obs import render_dashboard
    from repro.serve.wire import WireClient

    args = build_top_parser().parse_args(argv)
    host, port = args.endpoint
    endpoint = f"{host}:{port}"
    try:
        while True:
            # One short-lived connection per poll: survives server
            # restarts between refreshes and needs no keepalive logic.
            try:
                with WireClient(host, port, timeout=args.timeout) as client:
                    stats = client.stats()
                    health = client.health()
            except Exception as error:  # noqa: BLE001
                if args.once:
                    print(f"top: {endpoint} unreachable: {error}", file=sys.stderr)
                    return 2
                if not args.as_json:
                    print("\x1b[2J\x1b[H", end="")
                print(f"repro top — {endpoint} — UNREACHABLE ({error})", flush=True)
                time.sleep(args.interval)
                continue
            if args.as_json:
                print(
                    json.dumps(
                        {"stats": stats, "health": health}, sort_keys=True
                    ),
                    flush=True,
                )
            else:
                screen = render_dashboard(stats, health, endpoint=endpoint)
                if not args.once:
                    print("\x1b[2J\x1b[H", end="")
                print(screen, flush=True)
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_scenario_parser() -> argparse.ArgumentParser:
    """The ``scenario`` (adversarial replay) command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description=(
            "Replay a registered adversarial scenario against the full "
            "live stack (ingest + serving + wire) under an "
            "accelerated clock, asserting batch/stream/serve/wire parity "
            "and per-phase alert-latency SLOs.  Exit 0 when every bar "
            "holds, 1 with the typed per-phase report otherwise."
        ),
    )
    parser.add_argument(
        "name",
        nargs="?",
        metavar="NAME",
        help="registered scenario to run (see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the registered scenario catalogue and exit",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="K",
        help=(
            "clock acceleration: K simulated seconds per wall second "
            "(default: the spec's own; 0 replays unpaced)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="world seed override (default: the spec's, then the preset's)",
    )
    parser.add_argument(
        "--no-wire",
        action="store_true",
        help="skip the wire tier (no server, no wire parity check)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the end-of-run parity battery",
    )
    parser.add_argument(
        "--no-slo",
        action="store_true",
        help=(
            "do not arm per-phase SLO engines (useful for byte-identity "
            "studies; SLO evaluations read wall-clock latencies)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the final report as one JSON object instead of text",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress lines; print only the final report",
    )
    return parser


def run_scenario_command(argv: Sequence[str]) -> int:
    """Resolve, replay and judge one scenario from the registry."""
    from repro.simulation.scenarios import (
        RunOptions,
        ScenarioFailure,
        get_scenario,
        run_scenario,
        scenario_names,
    )

    parser = build_scenario_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in scenario_names():
            spec = get_scenario(name)
            tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"{name}{tags}")
            print(f"    {spec.description}")
        return 0

    if args.name is None:
        parser.error("a scenario NAME is required (or use --list)")
    try:
        spec = get_scenario(args.name)
    except ValueError as error:
        print(f"scenario: {error}", file=sys.stderr)
        return 2

    progress = None if args.quiet else lambda line: print(line, flush=True)
    options = RunOptions(
        speed=args.speed,
        seed=args.seed,
        wire=not args.no_wire,
        evaluate_slos=not args.no_slo,
        verify_parity=not args.no_verify,
        progress=None if args.as_json else progress,
        raise_on_failure=False,
    )
    try:
        report = run_scenario(spec, options)
    except ScenarioFailure as failure:  # defensive; raise_on_failure=False
        report = failure.report
    if args.as_json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    elif args.quiet:
        print(report.render(), flush=True)
    if report.ok:
        return 0
    for line in report.failures():
        print(f"scenario: {line}", file=sys.stderr)
    return 1


def build_query_parser() -> argparse.ArgumentParser:
    """The ``query`` (wire client) command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description=(
            "Query a running wash-status wire server (started with "
            "'repro serve --listen HOST:PORT'); answers print as JSON."
        ),
    )
    parser.add_argument(
        "--connect",
        type=parse_endpoint,
        required=True,
        metavar="HOST:PORT",
        help="wire server endpoint to connect to",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="socket timeout in seconds (default: 10)",
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    verbs.add_parser("ping", help="liveness + protocol version")
    verbs.add_parser("version", help="pin and print the current version")
    verbs.add_parser("stats", help="server connection/request counters")
    verbs.add_parser("funnel", help="live refinement-funnel statistics")
    verbs.add_parser("collections", help="every contract known to the store")
    verbs.add_parser("venues", help="venues with confirmed activity")
    status = verbs.add_parser("token-status", help="wash status of one NFT")
    status.add_argument("contract")
    status.add_argument("token_id", type=int)
    profile = verbs.add_parser(
        "account-profile", help="involvement summary of one account"
    )
    profile.add_argument("address")
    listing = verbs.add_parser(
        "list", help="filtered listing of confirmed activities"
    )
    listing.add_argument("--method", default=None, help="detection method filter")
    listing.add_argument("--venue", default=None, help="dominant-venue filter")
    listing.add_argument("--since-block", type=int, default=None)
    listing.add_argument("--limit", type=int, default=20)
    collection = verbs.add_parser(
        "collection", help="aggregate rollup of one contract"
    )
    collection.add_argument("contract")
    marketplace = verbs.add_parser(
        "marketplace", help="aggregate rollup of one venue"
    )
    marketplace.add_argument("venue")
    alerts = verbs.add_parser("alerts", help="one-shot alert-log replay")
    alerts.add_argument("--since-seq", type=int, default=-1)
    alerts.add_argument("--limit", type=int, default=None)
    subscribe = verbs.add_parser(
        "subscribe", help="stream alerts live (replay + push), one JSON per line"
    )
    subscribe.add_argument("--since-seq", type=int, default=-1)
    subscribe.add_argument(
        "--max-alerts",
        type=int,
        default=None,
        help="exit after this many alerts (default: stream forever)",
    )
    subscribe.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds without an alert",
    )
    return parser


def run_query(argv: Sequence[str]) -> int:
    """The wire-client subcommand: one verb, one JSON answer."""
    from repro.serve.wire import WireClient, WireRequestError
    from repro.serve.wire import codec

    args = build_query_parser().parse_args(argv)
    host, port = args.connect
    client = WireClient(host, port, timeout=args.timeout)
    try:
        client.connect()
    except OSError as error:
        print(f"cannot connect to {host}:{port}: {error}", file=sys.stderr)
        return 1

    try:
        if args.verb == "subscribe":
            stream = client.subscribe(args.since_seq)
            served = 0
            idle = 0.0
            while args.max_alerts is None or served < args.max_alerts:
                alert = stream.next(timeout=0.2)
                if alert is None:
                    if stream.closed.is_set():
                        break
                    idle += 0.2
                    if args.idle_timeout is not None and idle >= args.idle_timeout:
                        break
                    continue
                idle = 0.0
                print(
                    json.dumps(codec.encode_alert(alert), sort_keys=True),
                    flush=True,
                )
                served += 1
            if stream.overflow_seq is not None:
                print(
                    f"overflowed; resume with --since-seq {stream.overflow_seq}",
                    file=sys.stderr,
                )
                return 3
            return 0
        if args.verb == "ping":
            result = client.ping()
        elif args.verb == "version":
            result = client.version()
        elif args.verb == "stats":
            result = client.stats()
        elif args.verb == "funnel":
            result = client.funnel_stats()
        elif args.verb == "collections":
            result = {"collections": client.collections()}
        elif args.verb == "venues":
            result = {"venues": client.venues()}
        elif args.verb == "token-status":
            result = client.token_status(args.contract, args.token_id)
        elif args.verb == "account-profile":
            result = client.account_profile(args.address)
        elif args.verb == "list":
            result = client.list_confirmed(
                method=args.method,
                venue=args.venue,
                since_block=args.since_block,
                limit=args.limit,
            )
        elif args.verb == "collection":
            result = client.collection_rollup(args.contract)
        elif args.verb == "marketplace":
            result = client.marketplace_rollup(args.venue)
        elif args.verb == "alerts":
            result = client.alerts(since_seq=args.since_seq, limit=args.limit)
        else:  # pragma: no cover - argparse enforces the verb set
            raise AssertionError(args.verb)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except WireRequestError as error:
        print(f"server error [{error.code}]: {error.message}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"connection failed: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()


def run_batch(argv: Sequence[str]) -> int:
    """The batch reproduction (the historical flat CLI)."""
    args = build_parser().parse_args(argv)
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config.seed = args.seed

    started = time.time()
    world = build_default_world(config)
    report = PaperReport(
        world,
        engine=args.engine,
        enabled_methods=_enabled_methods(args),
    )
    text = report.render_text()
    elapsed = time.time() - started

    if not args.quiet:
        print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        if args.quiet:
            # Quiet + output means "just the file, please": skip the
            # trailing summary as well.
            return 0

    result = report.result
    score = world.ground_truth.match_against(result.washed_nfts())
    print(
        f"\n[{args.preset}/{args.engine}] {world.chain.transaction_count()} transactions, "
        f"{result.activity_count} confirmed wash trading activities, "
        f"recall {score.recall:.1%} on planted ground truth, {elapsed:.1f}s"
    )
    return 0


def run_monitor(argv: Sequence[str]) -> int:
    """The streaming watchdog subcommand."""
    from repro.stream import AlertKind, StreamingMonitor

    args = build_monitor_parser().parse_args(argv)
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config.seed = args.seed

    obs = _ObsSession(args)
    world = build_default_world(config)
    monitor = StreamingMonitor.for_world(
        world,
        watchlist=args.watch,
        max_reorg_depth=args.max_reorg_depth,
        enabled_methods=_enabled_methods(args),
        registry=obs.registry,
    )

    if not args.quiet:

        @monitor.subscribe
        def _print_alert(alert) -> None:
            if alert.kind is AlertKind.REORG_DETECTED:
                print(
                    f"  [block {alert.block:>6}] REORG depth {alert.reorg_depth} "
                    f"(fork at block {alert.fork_block})"
                )
            elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
                print(
                    f"  [block {alert.block:>6}] RETRACTED {alert.nft.contract}#"
                    f"{alert.nft.token_id} ({len(alert.accounts)} accounts)"
                )
            elif alert.kind is AlertKind.NFT_FLAGGED:
                print(
                    f"  [block {alert.block:>6}] FLAGGED {alert.nft.contract}#"
                    f"{alert.nft.token_id} ({len(alert.accounts)} accounts, "
                    f"latency {alert.latency_blocks} blocks)"
                )
            elif alert.kind is AlertKind.WATCHLIST_HIT:
                print(
                    f"  [block {alert.block:>6}] WATCHLIST "
                    f"{', '.join(sorted(alert.watched_accounts))} on "
                    f"{alert.nft.contract}#{alert.nft.token_id}"
                )

    started = time.time()
    snapshots = monitor.run(step_blocks=args.step_blocks)
    elapsed = time.time() - started
    obs.finish()

    result = monitor.result()
    score = world.ground_truth.match_against(result.washed_nfts())
    blocks = monitor.processed_block + 1
    rate = blocks / elapsed if elapsed > 0 else float("inf")
    print(
        f"\n[{args.preset}/monitor] {blocks} blocks in {len(snapshots)} ticks "
        f"({rate:,.0f} blocks/s), {result.activity_count} confirmed activities, "
        f"{len(monitor.flagged_nfts)} flagged NFTs, "
        f"{sum(1 for a in monitor.alerts if a.kind is AlertKind.WATCHLIST_HIT)} "
        f"watchlist hits, recall {score.recall:.1%} on planted ground truth, "
        f"{elapsed:.1f}s"
    )
    return 0


def run_serve(argv: Sequence[str]) -> int:
    """The query-service subcommand: threaded ingest + query workers."""
    from repro.serve import ServeService
    from repro.serve.load import LoadGenerator
    from repro.serve.parity import live_parity_mismatches
    from repro.stream import StreamingMonitor

    args = build_serve_parser().parse_args(argv)
    config = PRESETS[args.preset]()
    if args.seed is not None:
        config.seed = args.seed

    # SIGINT/SIGTERM ask for a graceful exit: the flag is checked by the
    # wait loops below, which then drain the wire server and join ingest
    # instead of dying mid-tick with a KeyboardInterrupt traceback.
    # Installed before any heavy work (even the world build), so a
    # supervisor that signals early still gets a clean exit.
    interrupted = threading.Event()
    previous_handlers = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(
                signum, lambda *_: interrupted.set()
            )

    obs = _ObsSession(args)
    try:
        world = build_default_world(config)
        monitor = StreamingMonitor.for_world(
            world,
            watchlist=args.watch,
            max_reorg_depth=args.max_reorg_depth,
            enabled_methods=_enabled_methods(args),
            registry=obs.registry,
        )
        service = ServeService(monitor, registry=obs.registry)
        query = service.query

        objectives = []
        if args.slo_latency_p95 is not None:
            from repro.obs import latency_objective

            objectives.append(
                latency_objective(
                    args.slo_latency_p95,
                    window=args.slo_window,
                    budget=args.slo_budget,
                )
            )
        if args.slo_error_rate is not None:
            from repro.obs import wire_error_objective

            objectives.append(
                wire_error_objective(
                    args.slo_error_rate,
                    window=args.slo_window,
                    budget=args.slo_budget,
                )
            )
        if objectives:
            from repro.obs import SLOEngine

            service.attach_slo(SLOEngine(obs.registry, objectives))

        if args.listen is not None:
            server = service.serve_wire(*args.listen)
            wire_host, wire_port = server.address
            print(f"wire: listening on {wire_host}:{wire_port}", flush=True)

        # The workers run the same mixed workload the load benchmark
        # measures (repro.serve.load), stopping when ingest is done.
        generators = [
            LoadGenerator(query, seed=1000 + slot, stop=service.done)
            for slot in range(max(args.query_threads, 0))
        ]

        started = time.time()
        service.start_background(step_blocks=args.step_blocks)
        for generator in generators:
            generator.thread.start()
        while not service.done.wait(0.1):
            if interrupted.is_set():
                service._stop.set()
                break
        try:
            service.join()
        except Exception as error:
            for generator in generators:
                generator.thread.join()
            # Close only the wire side here: service.shutdown() would
            # re-raise the stored ingest error and swallow the message.
            if service.wire is not None:
                service.wire.close()
            print(f"ingest failed: {error!r}", file=sys.stderr)
            return 2
        for generator in generators:
            generator.thread.join()
        elapsed = time.time() - started

        final = query.version()
        result = service.result()
        score = world.ground_truth.match_against(result.washed_nfts())
        total_queries = sum(generator.queries for generator in generators)
        qps = total_queries / elapsed if elapsed > 0 else float("inf")
        ticks = service.tick_latency_snapshot()
        status = 0

        worker_errors = [
            error for generator in generators for error in generator.errors
        ]
        if worker_errors:
            print(f"query workers raised: {worker_errors[:3]}", file=sys.stderr)
            status = 2
        # The serve index applies ticks as an (isolated) monitor subscriber;
        # a failure there leaves the read model stale, so it is a serving
        # error even though the monitor itself kept going.
        subscriber_errors = (
            list(service.monitor.subscriber_errors)
            + list(service.index.subscriber_errors)
        )
        subscriber_error_total = (
            service.monitor.subscriber_errors.total
            + service.index.subscriber_errors.total
        )
        if subscriber_errors:
            print(
                f"subscriber failures during ingest "
                f"({subscriber_error_total} total, last "
                f"{len(subscriber_errors)} retained): {subscriber_errors[:3]}",
                file=sys.stderr,
            )
            status = 2
        if args.verify and interrupted.is_set():
            # Interrupted before ingest finished: the serve state is a
            # legitimate partial prefix, not a full-head build, so the
            # parity comparison would be meaningless -- and the shutdown
            # contract is a clean exit 0.
            print(
                "interrupted before ingest completed; skipping --verify",
                file=sys.stderr,
            )
        if args.verify and not interrupted.is_set():
            checks = live_parity_mismatches(
                service, world, enabled_methods=_enabled_methods(args)
            )
            mismatches = checks["stream-vs-batch"] + checks["serve-vs-batch"]
            if mismatches:
                for mismatch in mismatches:
                    print(f"parity mismatch: {mismatch}", file=sys.stderr)
                status = 2
            elif not args.quiet:
                print("serving parity vs batch build: OK")
            wire_mismatches = checks.get("wire-vs-in-process")
            if wire_mismatches is not None:
                if wire_mismatches:
                    for mismatch in wire_mismatches:
                        print(f"wire parity mismatch: {mismatch}", file=sys.stderr)
                    status = 2
                elif not args.quiet:
                    print("wire parity vs in-process service: OK")
        if (
            args.expect_confirmed
            and not interrupted.is_set()
            and final.confirmed_activity_count == 0
        ):
            print("expected a non-empty confirmed set", file=sys.stderr)
            status = max(status, 1)

        cache_stats = service.cache_stats()
        if not args.quiet:
            print(
                f"aggregate cache: {cache_stats.hits} hits / "
                f"{cache_stats.lookups} lookups ({cache_stats.hit_rate:.1%}), "
                f"{cache_stats.invalidated} invalidated"
            )
        tick_line = (
            f"tick p50 {ticks.p50 * 1e3:.1f}ms "
            f"p95 {ticks.p95 * 1e3:.1f}ms "
            f"max {ticks.max * 1e3:.1f}ms"
            if ticks.count
            else "no ticks"
        )
        print(
            f"\n[{args.preset}/serve] {final.version} versions to block "
            f"{final.block}, {final.confirmed_activity_count} confirmed "
            f"activities on {len(final.flagged_nfts)} NFTs, "
            f"{total_queries} queries from {args.query_threads} threads "
            f"({qps:,.0f} q/s), {tick_line}, recall {score.recall:.1%}, "
            f"{elapsed:.1f}s",
            flush=True,
        )
        if args.listen is not None and not interrupted.is_set():
            # Ingest is done but the wire stays up: serve until asked to
            # stop, then drain and exit cleanly.
            if not args.quiet:
                print("wire: serving until interrupted", flush=True)
            interrupted.wait()
        service.shutdown()
        if args.listen is not None and not args.quiet:
            print("wire: shut down cleanly", flush=True)
        return status
    finally:
        obs.finish()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to a subcommand; bare flags run the batch reproduction."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = "run"
    if argv and argv[0] in COMMANDS:
        command, argv = argv[0], argv[1:]
    if command == "monitor":
        return run_monitor(argv)
    if command == "serve":
        return run_serve(argv)
    if command == "query":
        return run_query(argv)
    if command == "probe":
        return run_probe(argv)
    if command == "top":
        return run_top(argv)
    if command == "scenario":
        return run_scenario_command(argv)
    return run_batch(argv)


if __name__ == "__main__":
    sys.exit(main())
