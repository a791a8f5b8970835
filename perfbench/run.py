"""The repository benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload batch|replay|follow --seed N \\
        --seconds S --trace 0|1

``--seed`` seeds the traffic: the ``follow`` query mix and reorg
schedule.  The world is the benchmark's fixed input corpus, seed 42 (the
paper-calibrated default; other seeds change world size by a few
percent, which would swamp run-to-run noise).  ``--world-seed``,
``--query-seed`` and ``--reorg-seed`` override each seed, so a claim
can be re-checked on inputs not used while writing it.

Human-readable lines come first (an environment header, then the
workload's own numbers); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` they
are its ``per_layer`` list, from added instrumented passes (0 where a
workload does no work in that layer).

The end-to-end times ``setup_s`` and ``pass_s`` are scaled to the host's
quiet speed: each timed step is divided by the slowness of a fixed
reference loop sampled next to it (see ``common.PassClock``), because
the shared host this was tuned on runs everything 1.5-1.8x slower for
minutes at a time.  The raw wall-clock figures print as ``*_wall_s``,
and the per-layer timings are raw.

The metric names and units are read from ``BENCHMARK.json`` so the file
and the output cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("batch", "replay", "follow"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=42)
    parser.add_argument("--query-seed", type=int, default=None)
    parser.add_argument("--reorg-seed", type=int, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The optional C kernel compiles on first use; keep the compiler's
    # scratch files inside the checkout.
    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(SRC))

    import numpy

    from common import peak_rss_mb, median
    from repro.engine.kernels import active_backend
    from workloads import BATCH_SCALE, WORKLOADS, Options

    opts = Options(
        seconds=args.seconds,
        trace=bool(args.trace),
        world_seed=args.world_seed,
        query_seed=args.seed if args.query_seed is None else args.query_seed,
        reorg_seed=args.seed if args.reorg_seed is None else args.reorg_seed,
    )
    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} tarjan={active_backend()} "
        f"scale={BATCH_SCALE if args.workload == 'batch' else 1} sha={git_sha()}"
    )
    print(
        f"run: workload={args.workload} seconds={args.seconds} trace={args.trace} "
        f"world_seed={opts.world_seed} query_seed={opts.query_seed} "
        f"reorg_seed={opts.reorg_seed}"
    )
    started = time.perf_counter()
    out = WORKLOADS[args.workload](opts)
    failed = len(out.failures)
    for problem in out.failures[:20]:
        print(f"FAIL: {problem}")
    attempted = max(out.attempted, 1)
    end_to_end = {
        "setup_s": out.warmup_s + median(out.setup_s),
        "pass_s": out.pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.report["setup_wall_s"] = out.warmup_wall_s + median(out.setup_wall_s)
    layers = dict(out.layers, **{"engine.kernel_warmup_s": out.warmup_wall_s})
    print(f"{args.workload}: setup samples s = {[round(v, 3) for v in out.setup_s]}")
    print(f"{args.workload}: setup samples wall s = {[round(v, 3) for v in out.setup_wall_s]}")
    # The oracles ran in children (left out of peak_rss_mb); their peak:
    print(f"{args.workload}: oracle_peak_rss_mb = {peak_rss_mb(resource.RUSAGE_CHILDREN):.6g}")
    for name, value in sorted(out.report.items()):
        print(f"{args.workload}: {name} = {value:.6g}")
    for name, value in end_to_end.items():
        print(f"{args.workload}: {name} = {value:.6g}")
    print(
        f"{args.workload}: error_rate = {failed / attempted:.6g} "
        f"({failed}/{attempted}); wall {time.perf_counter() - started:.1f}s"
    )
    source = end_to_end if args.trace == 0 else layers
    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {
        entry["name"]: {"value": float(source.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in listed
    }
    if args.trace:
        timed = ("_s", "_ms", "_us", "_pct", "per_s")
        counts = {k: v for k, v in sorted(layers.items()) if not k.endswith(timed)}
        print(f"{args.workload}: counts {json.dumps(counts, sort_keys=True)}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
