"""networkx is the oracle's library: the production path never loads it.

The legacy pipeline and the Fig. 7 pattern analysis import networkx
where they call it; the columnar engine, the stream and serve layers and
the wire front end run on the stdlib alone.  Whether a
module is loaded is process state, so the check runs in a fresh
interpreter: it imports the parity checks (:mod:`repro.verify`) and
drives the whole production path, asserts networkx is still absent,
then runs the legacy oracle (:func:`repro.verify.reference`) and asserts
networkx is now loaded and both answers agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

REPO_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PRODUCTION_THEN_ORACLE = textwrap.dedent(
    """
    import sys
    import time

    from repro.core.detectors.pipeline import WashTradingPipeline
    from repro.ingest.dataset import build_dataset
    from repro.serve import ServeService
    from repro.serve.wire import RemoteQueryService
    from repro.simulation.builder import build_default_world
    from repro.simulation.config import SimulationConfig
    from repro.verify import reference, result_mismatches

    assert "networkx" not in sys.modules, "importing the checks loaded networkx"

    world = build_default_world(SimulationConfig.tiny())
    head = world.node.block_number

    # Serve: one catch-up tick, a few head-following ticks, then one
    # wire read per verb.
    service = ServeService.for_world(world)
    service.advance(head - 40)
    service.run(step_blocks=10)
    assert service.monitor.processed_block == head
    server = service.serve_wire()
    remote = RemoteQueryService(*server.address)
    try:
        version = remote.version()
        nft = version.token_order[0]
        remote.token_status(nft, version=version)
        remote.account_profile(version.account_profiles[0], version=version)
        page = remote.list_confirmed(limit=5, version=version)
        assert page.total_matched > 0
        remote.funnel_stats(version=version)
        remote.collection_rollup(remote.collections(version=version)[0], version=version)
        remote.marketplace_rollup(remote.venues(version=version)[0], version=version)
        cursor = remote.replay()
        deadline = time.monotonic() + 30
        while not cursor.poll() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert cursor.position >= 0, "no replayed alert arrived"
    finally:
        remote.close()
        service.shutdown()

    columnar = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="columnar"
    ).run(build_dataset(world.node, world.marketplace_addresses))
    assert "networkx" not in sys.modules, "production path loaded networkx"

    legacy = reference(world)
    assert "networkx" in sys.modules, "legacy oracle ran without networkx"
    assert result_mismatches(columnar, legacy) == []
    assert columnar.activities
    print("ok", len(columnar.activities))
    """
)


def test_production_path_never_loads_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCTION_THEN_ORACLE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
