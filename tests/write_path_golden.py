"""Golden digests of the replay write path, and the grid they cover.

``tests/data/write_path_golden.json`` pins what the replay writes:
archive trees (relative path -> file sha256, hashed as one digest) and
the sorted warehouse rows an ingest of them loads.  Every entry was
recorded from the per-sample scalar daemon, the original collector
loop that the batched ``sample_block`` kernels were derived from, and
only where the batched engine produced identical bytes on the same
inputs.  The scalar loop itself is gone; these digests are the oracle
that replaced it, next to the invariant tests in
``tests/tacc_stats/test_collector_invariants.py``.

Three families are pinned:

* ``files/...`` -- :meth:`Facility.run_with_files` over
  {ranger, stampede, lonestar4} x {text, v2} x {strict, quarantine,
  repair} x :data:`FILES_SEEDS` on 2 nodes x 1 day.  Seed 47 on
  stampede puts a zero-duration job (truncated at the horizon) on
  node 1.  Two more entries pin a 4-node Ranger day in each format.
* ``rotation/...`` -- one :class:`~repro.live.runner.LiveReplay` driven
  by ``advance`` in micro-batches at sub-day rotation
  {1, 3, 6, 12} h x batch_segments {1, 2, 3} x {text, v2}.
* ``live/...`` -- a whole :class:`~repro.live.runner.LiveSession` at a
  6 h cadence, micro-batch ingest included.

The helpers here only run the program and hash what it wrote; the
tests decide which digests must match.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import Facility
from repro.config import LONESTAR4, RANGER, STAMPEDE
from repro.live.runner import LiveReplay, LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.util.timeutil import HOUR

GOLDEN_PATH = Path(__file__).parent / "data" / "write_path_golden.json"

ARCHETYPES = {"ranger": RANGER, "stampede": STAMPEDE,
              "lonestar4": LONESTAR4}
FORMATS = ("text", "v2")
POLICIES = ("strict", "quarantine", "repair")
FILES_SEEDS = (5, 47, 2013)
ROTATION_HOURS = (1, 3, 6, 12)
BATCH_SEGMENTS = (1, 2, 3)
SYNTH_SEED = 17
ROTATION_SEED = 29
LIVE_SEED = 3

#: Warehouse tables pinned, with the columns that identify their rows.
TABLES = {
    "jobs": "system, jobid, user, account, science_field, app, queue, "
            "exit_status, submit_time, start_time, end_time, nodes, "
            "cores, node_hours",
    "job_metrics": "system, jobid, metric, value",
    "system_series": "system, metric, t, value",
    "syslog_events": "system, t, host, jobid, kind, severity",
}


def files_config(name: str):
    return ARCHETYPES[name].scaled(num_nodes=2, horizon_days=1, n_users=6)


def synth_config():
    return RANGER.scaled(num_nodes=4, horizon_days=1, n_users=8)


def rotation_config():
    return RANGER.scaled(num_nodes=2, horizon_days=1, n_users=5)


def files_key(name: str, fmt: str, policy: str, seed: int) -> str:
    return f"files/{name}/{fmt}/{policy}/seed={seed}"


def synth_key(fmt: str) -> str:
    return f"files/ranger-4node/{fmt}/strict/seed={SYNTH_SEED}"


def rotation_key(hours: int, batch: int, fmt: str) -> str:
    return f"rotation/{hours}h/batch={batch}/{fmt}/seed={ROTATION_SEED}"


LIVE_KEY = f"live/ranger/6h/seed={LIVE_SEED}"


def files_grid():
    return [(name, fmt, policy, seed) for name in sorted(ARCHETYPES)
            for fmt in FORMATS for policy in POLICIES
            for seed in FILES_SEEDS]


def rotation_grid():
    return [(hours, batch, fmt) for hours in ROTATION_HOURS
            for batch in BATCH_SEGMENTS for fmt in FORMATS]


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


# -- digests -----------------------------------------------------------------


def tree(root) -> dict[str, str]:
    """{relative path: sha256} for every file under *root*."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def tree_digest(root) -> dict:
    files = tree(root)
    return {"archive": _sha(sorted(files.items())), "files": len(files)}


def table_rows(warehouse) -> dict[str, list]:
    warehouse.commit()
    return {
        table: warehouse.connection.execute(
            f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in TABLES.items()
    }


def rows_digest(warehouse) -> dict:
    return {table: _sha(rows)
            for table, rows in table_rows(warehouse).items()}


# -- the pinned runs -------------------------------------------------------------


def run_files(workdir, cfg, seed: int, fmt: str,
              policy: str = "strict") -> dict:
    """Digest of one uncompressed ``run_with_files`` run."""
    run = Facility(cfg, seed=seed).run_with_files(
        str(workdir), compress=False, archive_format=fmt,
        error_policy=policy)
    s = run.archive_stats
    return {**tree_digest(workdir), **rows_digest(run.warehouse),
            "stats": [s.raw_bytes, s.compressed_bytes, s.file_count,
                      s.host_days]}


def replay_in_batches(workdir, cfg, seed: int, fmt: str,
                      segment_seconds: int, cuts) -> None:
    """Drive one :class:`LiveReplay` over every node, closing completed
    segments after each ``advance(t)`` for ``t`` in *cuts*."""
    facility = Facility(cfg, seed=seed)
    workload, sim, _outages, _cluster = facility._simulate()
    archive = HostArchive(str(workdir), compress=False,
                          rotate_seconds=segment_seconds,
                          archive_format=fmt)
    replay = LiveReplay(
        cfg, seed, workload.users, workload.util_scale,
        facility.phase_calibration, facility.regressions,
        sim.records, archive)
    for t in cuts:
        replay.advance(t)
        archive.flush_before(t)
    archive.close()


def rotation_cuts(horizon: float, segment_seconds: int, batch: int):
    t, cuts = 0.0, []
    while t < horizon:
        t = min(t + batch * segment_seconds, horizon)
        cuts.append(t)
    return cuts


def run_rotation(workdir, hours: int, batch: int, fmt: str) -> dict:
    """Digest of one sub-day rotation grid entry."""
    cfg = rotation_config()
    seg = hours * HOUR
    replay_in_batches(workdir, cfg, ROTATION_SEED, fmt, seg,
                      rotation_cuts(cfg.horizon, seg, batch))
    return tree_digest(workdir)


def run_live(workdir) -> dict:
    """Digest of the pinned 6 h :class:`LiveSession`."""
    session = LiveSession(Facility(rotation_config(), seed=LIVE_SEED),
                          str(workdir), segment_seconds=6 * HOUR)
    session.run()
    return {**tree_digest(workdir), **rows_digest(session.warehouse)}
