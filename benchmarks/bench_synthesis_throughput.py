"""Vectorized synthesis: replay throughput.

The slow path's write side replays every node through batched
collector kernels (``docs/PERFORMANCE.md`` "Vectorized synthesis"):
every job-segment is one ``[timesteps x devices x counters]`` kernel
call per collector and, for v2 archives, the columns go straight to the
encoder without re-parsing the text just rendered.

This bench runs the scheduler simulation once, then times ONLY the node
replay in the tentpole configuration — direct-to-v2, uncompressed — and
reports nodes/s and rows/s.  The ``synthesis nodes/s`` line is an
advisory absolute gate in ``check_regression.py`` (a wall-clock rate,
so ``--strict`` enforces it).  What the replay writes is pinned
separately, by the golden digests in ``tests/data``.

Set ``REPRO_BENCH_QUICK=1`` for fewer timed passes (CI smoke).
"""

import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro import RANGER, Facility
from repro.facility import _replay_nodes

BENCH_CFG = RANGER.scaled(num_nodes=8, horizon_days=1, n_users=10)
SEED = 7


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="module")
def replay_inputs():
    """One scheduler simulation shared by every timed replay pass."""
    facility = Facility(BENCH_CFG, seed=SEED)
    workload, sim, _outages, _cluster = facility._simulate()
    return (BENCH_CFG, SEED, workload.users, workload.util_scale,
            facility.phase_calibration, facility.regressions, sim.records)


def _timed(replay_inputs, base: str, reps: int):
    """(best seconds, first pass's metrics snapshot)."""
    best, kept_snap = None, None
    for i in range(reps):
        out = os.path.join(base, f"replay-{i}")
        t0 = time.perf_counter()
        _stats, snap = _replay_nodes(
            *replay_inputs, list(range(BENCH_CFG.num_nodes)), out,
            False, "v2")
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        if i == 0:
            kept_snap = snap
        shutil.rmtree(out)
    return best, kept_snap


def test_synthesis_throughput(replay_inputs, save_artifact, tmp_path):
    """Batched kernels, direct-to-v2, no gzip."""
    # Best-of-N keeps one noisy pass on a loaded CI runner from swinging
    # the gated rate.
    reps = 2 if _quick() else 3
    fast_s, fast_snap = _timed(replay_inputs, str(tmp_path), reps)

    samples = int(fast_snap.counters["synth.samples"])
    rows = int(fast_snap.counters["synth.rows"])
    nodes = BENCH_CFG.num_nodes
    text = "\n".join([
        "Vectorized synthesis (batched kernels -> direct-to-v2, "
        "uncompressed)",
        "",
        f"corpus: {nodes} nodes x 1 day ranger, {samples} samples, "
        f"{rows} value rows",
        f"replay: {fast_s:.2f} s  ({rows / fast_s:,.0f} rows/s)",
        f"synthesis nodes/s: {nodes / fast_s:.1f}",
    ])
    save_artifact("synthesis_throughput", text)
    # Machine-readable trajectory point (uploaded by CI with the rest
    # of benchmarks/out/): one JSON object per run, diffable over time.
    summary = {
        "bench": "synthesis_throughput",
        "system": "ranger",
        "nodes": nodes,
        "days": 1,
        "samples": samples,
        "rows": rows,
        "fast_s": round(fast_s, 4),
        "nodes_per_s": round(nodes / fast_s, 1),
        "rows_per_s": round(rows / fast_s),
    }
    (Path(__file__).parent / "out" / "synthesis_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("\n" + text)
    assert rows > 0
