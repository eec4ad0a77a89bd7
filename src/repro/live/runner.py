"""The one replay driver, and the micro-batcher behind live mode.

:class:`LiveReplay` drives a set of nodes' TACC_Stats processes
(:class:`~repro.tacc_stats.synth.NodeSynth`) over the facility's
events: periodic ticks plus job begin/end, in one same-instant order
(end < periodic tick < begin).  :meth:`LiveReplay.advance` processes
every event up to a time bound, node by node.  The offline slow path
(:meth:`repro.facility.Facility.run_with_files`) builds one replay per
worker's node chunk and advances it to the horizon in a single call;
live mode advances the replay of every node one micro-batch at a time.
Each node's events fire in the same order either way and its engine
carries its collector state across the cuts, so the archive bytes at a
given rotation period do not depend on how the horizon is sliced.
That is what makes live micro-batch ingest byte-identical to a one-shot
append (property-tested in ``tests/live``).

:class:`LiveSession` wraps the replay in the operator loop: advance to
the next segment boundary, flush completed segments to disk, push them
through the ordinary watermark ledger (``ingest(mode="append")``),
publish per-job cumulative counters for the rate views, and refresh the
rolling warehouse snapshot in place.  Telemetry lands under ``live.*``
(batches, rows appended, counter rows, refresh latency histogram).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from repro.cluster.node import Node, node_hostname
from repro.config import FacilityConfig
from repro.facility import Facility, _build_behavior
from repro.ingest.pipeline import DeltaSummary, IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.live.rates import COUNTER_WRAP_BITS
from repro.scheduler.job import JobRecord
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.synth import NodeSynth
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import span
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR, aligned_samples
from repro.workload.applications import RATE_INDEX
from repro.xdmod.snapshot import WarehouseSnapshot

__all__ = ["LIVE_COUNTER_METRICS", "LIVE_REFRESH_BUCKETS",
           "LiveBatchReport", "LiveReplay", "LiveSession"]

#: Rate fields published as cumulative live counters, in row order.
#: Each accumulates its per-second rate over wall time × nodes, so the
#: rate engine's delta/dt recovers the facility-wide per-job rate.
LIVE_COUNTER_METRICS: tuple[str, ...] = (
    "flops_gf",
    "cpu_user_frac",
    "io_scratch_write_mb",
    "net_mpi_mb",
)

#: Snapshot-refresh latency buckets: a rolling refresh is O(delta), so
#: resolution concentrates well below a second.
LIVE_REFRESH_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
)

#: Same-instant event order: a back-to-back allocation (the next job
#: starts the second the previous one releases the node) replays as
#: end, then the periodic tick, then begin.
_END, _TICK, _BEGIN = 0, 1, 2


class LiveReplay:
    """Drive the TACC_Stats processes of a set of nodes into a shared
    archive.

    *nodes* (default: every node) is the node subset this replay owns;
    its files are written by no one else, so concurrent replays of
    disjoint chunks never touch the same path.  Construction builds each
    node's sorted event list and the behaviour of every job that touches
    one of its nodes.  :meth:`advance` then processes each node's events
    up to and including a time bound, so successive calls replay the
    horizon in monotonic slices.

    Every collector draws from a noise stream named
    ``<prefix>/noise/<node>/<collector>``, so a node's bytes are fully
    determined by (seed, node, collector) and byte-identical under any
    split of the nodes across replays.
    """

    def __init__(self, cfg: FacilityConfig, seed: int, users: dict,
                 util_scale: float, phase_calibration: dict | None,
                 regressions: tuple, records: list[JobRecord],
                 archive: HostArchive, nodes: Iterable[int] | None = None):
        rng_factory = RngFactory(seed)
        prefix = cfg.stream_prefix
        node_indices = (range(cfg.num_nodes) if nodes is None
                        else list(nodes))
        wanted = set(node_indices)
        per_node: dict[int, list[tuple[JobRecord, int]]] = {}
        for record in records:
            for slot, ni in enumerate(record.node_indices):
                if ni in wanted:
                    per_node.setdefault(ni, []).append((record, slot))
        #: jobid -> behaviour of every job on these nodes, shared with
        #: the session's counter source.
        self.behaviors = {
            r.jobid: _build_behavior(cfg, users, util_scale,
                                     phase_calibration, regressions, r)
            for r in records if not wanted.isdisjoint(r.node_indices)
        }

        ticks = aligned_samples(0.0, cfg.horizon, cfg.sample_interval)
        lustre = tuple(
            fs.name for fs in cfg.filesystems if fs.kind == "lustre"
        ) or ("scratch",)
        nfs = tuple(fs.name for fs in cfg.filesystems if fs.kind == "nfs")
        #: [engine, sorted events, next-event index] per node.
        self._nodes: list[list] = []
        for ni in node_indices:
            node = Node(index=ni, hostname=node_hostname(cfg.name, ni),
                        hardware=cfg.node)
            engine = NodeSynth(
                node,
                lambda name, ni=ni: rng_factory.stream(
                    f"{prefix}/noise/{ni}/{name}"),
                archive, lustre_mounts=lustre, nfs_mounts=nfs)
            events: list[tuple[float, int, JobRecord | None, int]] = [
                (t, _TICK, None, 0) for t in ticks
            ]
            for record, slot in per_node.get(ni, []):
                events.append((record.start_time, _BEGIN, record, slot))
                # A zero-duration allocation (a job truncated at the
                # horizon) ends in its begin event: its end would sort
                # *before* its begin under the same-instant order.
                if record.end_time > record.start_time:
                    events.append((record.end_time, _END, record, slot))
            events.sort(key=lambda e: (e[0], e[1]))
            self._nodes.append([engine, events, 0])
        self.clock = 0.0

    def advance(self, until: float) -> int:
        """Process every node's events with ``t <= until``; returns how
        many events fired.  *until* must not move backwards."""
        if until < self.clock:
            raise ValueError(
                f"cannot advance backwards ({until} < {self.clock})")
        fired = 0
        for state in self._nodes:
            engine, events, ptr = state
            while ptr < len(events) and events[ptr][0] <= until:
                t, kind, record, slot = events[ptr]
                if kind == _TICK:
                    engine.sample(t)
                elif kind == _BEGIN:
                    engine.begin_job(record.jobid, t,
                                     self.behaviors[record.jobid], slot)
                    if record.end_time <= record.start_time:
                        engine.end_job(record.jobid, t)
                else:
                    engine.end_job(record.jobid, t)
                ptr += 1
                fired += 1
            state[2] = ptr
            # Materialize the batch before the caller closes segment
            # files: the engine buffers queued samples until a job-begin
            # boundary or an explicit flush.
            engine.flush()
        self.clock = until
        return fired


@dataclass
class LiveBatchReport:
    """What one micro-batch accomplished.

    ``snapshot_rows`` is the rolling snapshot's job-row count after the
    in-place refresh — the number CI asserts grows monotonically.
    """

    batch: int
    t_start: float
    t_end: float
    segments: int
    jobs_loaded: int
    jobs_total: int
    syslog_loaded: int
    counter_rows: int
    snapshot_rows: int
    refresh_seconds: float
    delta: DeltaSummary | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["delta"] = self.delta.to_dict() if self.delta else None
        return out

    def __str__(self) -> str:
        return (
            f"[live] batch={self.batch} t={self.t_start:.0f}"
            f"->{self.t_end:.0f} segments={self.segments} "
            f"jobs+={self.jobs_loaded} jobs={self.jobs_total} "
            f"snapshot_rows={self.snapshot_rows} "
            f"refresh_ms={self.refresh_seconds * 1e3:.1f}"
        )


class LiveSession:
    """The live micro-batch loop over one facility.

    Each :meth:`run_batch` call advances the replay by
    ``batch_segments`` rotation segments, closes the completed segment
    files, appends them through the watermark ledger, upserts the
    per-job cumulative counters, and refreshes the rolling snapshot.
    The accounting/Lariat/syslog side logs are produced once up front
    by :meth:`Facility.side_logs`, exactly as the offline path produces
    them — the ledger's watermarks and job deferral are what window
    them per batch.
    """

    def __init__(self, facility: Facility, archive_dir: str,
                 warehouse: Warehouse | None = None,
                 segment_seconds: int = HOUR, batch_segments: int = 1,
                 compress: bool = True):
        seg = int(segment_seconds)
        if seg <= 0 or seg != segment_seconds:
            raise ValueError(f"segment_seconds must be a positive whole "
                             f"number, got {segment_seconds!r}")
        if batch_segments < 1:
            raise ValueError(
                f"batch_segments must be >= 1, got {batch_segments}")
        cfg = facility.config
        self.config = cfg
        self.segment_seconds = seg
        self.batch_segments = batch_segments
        self.warehouse = warehouse or Warehouse()
        workload, sim, _outages, _cluster = facility._simulate()
        self.sim = sim
        self.archive = HostArchive(archive_dir, compress=compress,
                                   rotate_seconds=seg)
        self.replay = LiveReplay(
            cfg, facility.seed, workload.users, workload.util_scale,
            facility.phase_calibration, facility.regressions,
            sim.records, self.archive)
        self.side_logs = facility.side_logs(workload, sim.records,
                                            self.replay.behaviors)

        self.pipeline = IngestPipeline(self.warehouse)
        self.n_segments = int(cfg.horizon // seg) + 1
        self.snapshot: WarehouseSnapshot | None = None
        self._next_seg = 0
        self._batch = 0
        self._final_recorded: set[str] = set()
        self._wrap = 1 << COUNTER_WRAP_BITS
        self._cum_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def done(self) -> bool:
        return self._next_seg >= self.n_segments

    def _counters_at(self, record: JobRecord, t: float) -> list[int]:
        """The job's cumulative counters at facility time *t*.

        Integrates the behaviour's per-bin rates (× nodes) over the
        elapsed wall time and floors to integers — nondecreasing in
        *t*, wrapped at the rate engine's counter width.
        """
        interval = self.config.sample_interval
        cached = self._cum_cache.get(record.jobid)
        if cached is None:
            behavior = self.replay.behaviors[record.jobid]
            m = max(1, int(np.ceil(record.wall_seconds / interval)))
            idx = [RATE_INDEX[name] for name in LIVE_COUNTER_METRICS]
            per_bin = (behavior.rates_matrix(m)[:, idx]
                       * record.request.nodes)
            cum = np.vstack([np.zeros(len(idx)),
                             np.cumsum(per_bin, axis=0)]) * interval
            cached = (cum, per_bin)
            self._cum_cache[record.jobid] = cached
        cum, per_bin = cached
        elapsed = max(0.0, min(t, record.end_time) - record.start_time)
        full = min(int(elapsed // interval), per_bin.shape[0])
        vals = cum[full]
        frac = elapsed - full * interval
        if frac > 0 and full < per_bin.shape[0]:
            vals = vals + per_bin[full] * frac
        return [int(v) % self._wrap for v in vals]

    def _publish_counters(self, t1: float) -> int:
        """Upsert every started job's counters as of *t1*; a job's
        final (end-time) counters are published exactly once."""
        rows: list[tuple] = []
        for record in self.sim.records:
            jobid = record.jobid
            if jobid in self._final_recorded:
                continue
            if record.start_time >= t1:
                continue  # hasn't started yet
            t_sample = min(t1, record.end_time)
            ended = record.end_time <= t1
            req = record.request
            rows.extend(
                (jobid, req.user, req.app, t_sample, int(ended),
                 metric, value)
                for metric, value in zip(LIVE_COUNTER_METRICS,
                                         self._counters_at(record,
                                                           t_sample))
            )
            if ended:
                self._final_recorded.add(jobid)
        if rows:
            self.warehouse.record_live_counters(self.config.name, rows)
            self.warehouse.commit()
        return len(rows)

    def run_batch(self) -> LiveBatchReport | None:
        """Advance one micro-batch; ``None`` once the horizon is done."""
        if self.done:
            return None
        cfg = self.config
        hi = min(self._next_seg + self.batch_segments, self.n_segments)
        final = hi >= self.n_segments
        t_start = float(self._next_seg * self.segment_seconds)
        t_end = float(cfg.horizon) if final \
            else float(hi * self.segment_seconds)
        registry = get_registry()
        with span("live.batch", batch=self._batch, t_end=t_end):
            self.replay.advance(t_end)
            if final:
                self.archive.close()
            else:
                self.archive.flush_before(t_end)
            report = self.pipeline.ingest(
                cfg, archive=self.archive, mode="append", **self.side_logs)
            counter_rows = self._publish_counters(t_end)
            start = time.perf_counter()
            self.snapshot = WarehouseSnapshot.for_warehouse(
                self.warehouse)
            refresh_seconds = time.perf_counter() - start
            snapshot_rows = self.snapshot.frame(cfg.name).n_rows
            registry.counter("live.batches").inc()
            registry.counter("live.rows_appended").inc(
                report.jobs_loaded + report.syslog_events_loaded)
            registry.counter("live.counter_rows").inc(counter_rows)
            registry.histogram("live.refresh.seconds",
                               LIVE_REFRESH_BUCKETS).observe(
                refresh_seconds)
        out = LiveBatchReport(
            batch=self._batch, t_start=t_start, t_end=t_end,
            segments=hi - self._next_seg,
            jobs_loaded=report.jobs_loaded,
            jobs_total=self.warehouse.job_count(cfg.name),
            syslog_loaded=report.syslog_events_loaded,
            counter_rows=counter_rows,
            snapshot_rows=snapshot_rows,
            refresh_seconds=refresh_seconds,
            delta=report.delta,
        )
        self._next_seg = hi
        self._batch += 1
        return out

    def run(self, max_batches: int | None = None) -> list[LiveBatchReport]:
        """Run micro-batches until the horizon (or *max_batches*)."""
        reports: list[LiveBatchReport] = []
        while max_batches is None or len(reports) < max_batches:
            report = self.run_batch()
            if report is None:
                break
            reports.append(report)
        return reports
