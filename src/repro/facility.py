"""Facility driver: simulate → collect → ingest → analyze, in one call.

Two measurement paths produce the same warehouse contents:

* :meth:`Facility.run` (fast path) — the behaviour model's rate matrices
  are reduced to job summaries and system series directly, vectorized
  per job.  Used for study-period-scale runs (thousands of jobs) behind
  the figure/table benchmarks.
* :meth:`Facility.run_with_files` (slow path) — every node's TACC_Stats
  process writes the real archive format (self-describing text or v2
  columnar), and the ingest pipeline parses, matches, and summarizes it
  back.  Used at smaller scale to prove the production pipeline
  end-to-end and to measure the paper's volume/overhead claims.

The slow path's replay is the live one: each worker builds a
:class:`~repro.live.runner.LiveReplay` for its node chunk and advances
it to the horizon in one call, and :meth:`Facility.side_logs` builds
the accounting, Lariat and syslog inputs for both the offline and the
live ingest.

Both paths construct each job's :class:`~repro.workload.JobBehavior` from
the same seed, so they agree statistically (asserted by integration
tests).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.node import node_hostname
from repro.cluster.outages import Outage, OutageGenerator
from repro.config import FacilityConfig
from repro.ingest.pipeline import IngestPipeline, IngestReport
from repro.ingest.summarize import JobSummary, summarize_job_from_rates
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.scheduler.accounting import AccountingWriter
from repro.scheduler.engine import SchedulerEngine, SimulationResult
from repro.scheduler.job import JobRecord
from repro.scheduler.policies import EasyBackfillPolicy, SchedulingPolicy
from repro.syslogr.generator import SyslogGenerator
from repro.syslogr.rationalizer import Rationalizer
from repro.tacc_stats.archive import ArchiveStats, HostArchive
from repro.telemetry.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    use_registry,
)
from repro.telemetry.trace import span
from repro.util.rng import RngFactory
from repro.workload.applications import APP_CATALOG, RATE_INDEX
from repro.workload.behavior import DerivedRates, JobBehavior
from repro.workload.generator import GeneratedWorkload, WorkloadGenerator
from repro.xdmod.query import JobQuery

__all__ = ["Facility", "FacilityRun"]

_I_MEM = RATE_INDEX["mem_used_gb"]
_I_FLOPS = RATE_INDEX["flops_gf"]


def _build_behavior(cfg: FacilityConfig, users: dict, util_scale: float,
                    phase_calibration: dict | None, regressions: tuple,
                    record: JobRecord) -> JobBehavior:
    """Reconstruct a job's behaviour from picklable inputs only.

    Module-level (not a method) so multiprocessing workers can rebuild
    behaviours independently: a behaviour is fully determined by the
    request's seed and the facility context, so shipping the large rate
    matrices between processes is never necessary.
    """
    req = record.request
    flops_scale = 1.0
    for regression in regressions:
        if regression.applies(req.app, record.start_time):
            flops_scale *= regression.flops_factor
    # Application kernels are fixed benchmark inputs: a few percent of
    # run-to-run variance, not the workload's job-level spread.
    variability = 0.12 if req.queue == "appkernel" else 1.0
    return JobBehavior(
        app=APP_CATALOG[req.app],
        user=users[req.user],
        node_hw=cfg.node,
        n_nodes=req.nodes,
        duration=max(record.wall_seconds, cfg.sample_interval),
        sample_interval=cfg.sample_interval,
        behavior_seed=req.behavior_seed,
        util_scale=util_scale,
        calibration=phase_calibration,
        flops_scale=flops_scale,
        variability_scale=variability,
    )


def _node_chunks(num_nodes: int, workers: int) -> list[list[int]]:
    """Split node indices across *workers*, one non-empty chunk each.

    Workers are clamped to the node count: strided splitting with more
    workers than nodes would produce empty chunks, and dispatching a
    pool task that opens an archive handle only to write nothing is
    pure overhead.  The stride keeps each chunk's cost balanced when
    job placement favours low node indices.
    """
    n_workers = min(max(workers, 1), max(num_nodes, 1))
    all_nodes = list(range(num_nodes))
    return [all_nodes[i::n_workers] for i in range(n_workers) if
            all_nodes[i::n_workers]]


def _replay_nodes(
    cfg: FacilityConfig,
    seed: int,
    users: dict,
    util_scale: float,
    phase_calibration: dict | None,
    regressions: tuple,
    records: list[JobRecord],
    node_indices: list[int],
    archive_dir: str,
    compress: bool,
    archive_format: str = "text",
) -> tuple[ArchiveStats, MetricsSnapshot]:
    """Replay a chunk of nodes into the shared archive directory.

    Builds the :class:`~repro.live.runner.LiveReplay` of *node_indices*,
    advances it to the horizon in one call and closes the archive.  Each
    node's files are written only by the worker owning that node, so
    concurrent workers never touch the same path, and per-node RNG
    streams make the output byte-identical regardless of how nodes are
    split across workers (asserted by tests).  Returns the volume
    accounting plus the replay's telemetry snapshot — collected in a
    private registry so write-side counters merge to the same totals
    whether the replay ran in-process or in a pool worker.
    """
    # repro.live.runner imports this module.
    from repro.live.runner import LiveReplay

    local = MetricsRegistry()
    with use_registry(local):
        # resume_stats=False: each worker reports a session-scoped tally
        # the coordinator sums; resuming from the shared,
        # concurrently-growing directory would double-count sibling
        # workers' files.
        archive = HostArchive(archive_dir, compress=compress,
                              resume_stats=False,
                              archive_format=archive_format)
        LiveReplay(cfg, seed, users, util_scale, phase_calibration,
                   regressions, records, archive,
                   nodes=node_indices).advance(cfg.horizon)
        stats = archive.close()
    return stats, local.snapshot()


def _rationalize(system: str, records: list[JobRecord], raw: list) -> list:
    """Attribute raw syslog messages to the jobs occupying their hosts."""
    rationalizer = Rationalizer()
    for record in records:
        for ni in record.node_indices:
            rationalizer.add_occupancy(
                node_hostname(system, ni), record.start_time,
                record.end_time, record.jobid)
    rationalizer.finalize()
    messages, _unknown = rationalizer.rationalize_stream(raw)
    return messages


@dataclass
class FacilityRun:
    """Everything one simulated study period produced."""

    config: FacilityConfig
    warehouse: Warehouse
    workload: GeneratedWorkload
    sim: SimulationResult
    outages: list[Outage]
    ingest_report: IngestReport | None = None
    archive_stats: ArchiveStats | None = None

    def query(self) -> JobQuery:
        return JobQuery(self.warehouse, self.config.name)

    @property
    def records(self) -> list[JobRecord]:
        return self.sim.records


class Facility:
    """One simulated system, reproducible from (config, seed)."""

    def __init__(self, config: FacilityConfig, seed: int = 0,
                 policy: SchedulingPolicy | None = None,
                 phase_calibration: dict | None = None,
                 appkernels: tuple | None = None,
                 regressions: tuple | None = None):
        """*appkernels* is a tuple of
        :class:`repro.xdmod.appkernels.AppKernelSpec` to submit on their
        cadences; *regressions* a tuple of
        :class:`repro.xdmod.appkernels.PerfRegression` faults to inject."""
        self.config = config
        self.seed = seed
        self.rng_factory = RngFactory(seed)
        self.policy = policy or EasyBackfillPolicy()
        self.phase_calibration = phase_calibration
        self.appkernels = tuple(appkernels or ())
        self.regressions = tuple(regressions or ())

    def _stream(self, name: str) -> np.random.Generator:
        return self.rng_factory.stream(f"{self.config.stream_prefix}/{name}")

    # -- shared simulation front half ----------------------------------------

    def _simulate(self) -> tuple[GeneratedWorkload, SimulationResult,
                                 list[Outage], Cluster]:
        cfg = self.config
        with span("facility.simulate", system=cfg.name):
            return self._simulate_body(cfg)

    def _simulate_body(self, cfg: FacilityConfig
                       ) -> tuple[GeneratedWorkload, SimulationResult,
                                  list[Outage], Cluster]:
        """Workload generation + scheduling, timed by :meth:`_simulate`."""
        workload = WorkloadGenerator(cfg, self.rng_factory).generate()
        if self.appkernels:
            from repro.xdmod.appkernels import (
                kernel_requests,
                kernel_user_profile,
            )
            kernels = kernel_requests(self.appkernels, cfg, self.seed)
            merged = sorted(workload.requests + kernels,
                            key=lambda r: r.submit_time)
            users = dict(workload.users)
            users[kernel_user_profile().username] = kernel_user_profile()
            workload = GeneratedWorkload(
                requests=merged, users=users,
                util_scale=workload.util_scale,
            )
        cluster = Cluster(cfg.name, cfg.num_nodes, cfg.node,
                          cfg.filesystems, cfg.interconnect)
        outages = OutageGenerator(cfg.num_nodes).generate(
            cfg.horizon, self._stream("outages")
        )
        sim = SchedulerEngine(cluster, self.policy).run(
            workload.requests, outages, horizon=cfg.horizon
        )
        return workload, sim, outages, cluster

    def _behavior_for(self, record: JobRecord,
                      workload: GeneratedWorkload) -> JobBehavior:
        return _build_behavior(
            self.config, workload.users, workload.util_scale,
            self.phase_calibration, self.regressions, record,
        )

    def side_logs(self, workload: GeneratedWorkload,
                  records: list[JobRecord],
                  behaviors: dict[str, JobBehavior] | None = None,
                  ) -> dict:
        """What an archive ingest joins besides the TACC_Stats files,
        as :meth:`IngestPipeline.ingest` keywords: the accounting log
        text, the Lariat records and the rationalized syslog stream.

        The offline slow path and the live session both call this, so
        their side logs agree byte for byte.  *behaviors* (jobid ->
        behaviour) reuses behaviours a replay has built already;
        without it each job's behaviour is rebuilt from *workload*.
        """
        cfg = self.config
        acct_buf = io.StringIO()
        AccountingWriter(acct_buf, cfg.node.cores,
                         cfg.name).write_all(records)
        lariat = [lariat_record_for(r, cfg.node.cores) for r in records]

        syslog_gen = SyslogGenerator(self._stream("syslog"), cfg.name)
        raw = []
        for record in records:
            behavior = (behaviors[record.jobid] if behaviors is not None
                        else self._behavior_for(record, workload))
            m = max(1, int(np.ceil(record.wall_seconds / cfg.sample_interval)))
            summary = summarize_job_from_rates(record,
                                               behavior.rates_matrix(m))
            raw.extend(syslog_gen.generate_for_job(
                record,
                mem_frac_max=summary.get("mem_used_max") / cfg.node.memory_gb,
                scratch_write_mb=summary.get("io_scratch_write"),
                cpu_idle_frac=summary.get("cpu_idle"),
            ))
        return {"accounting_text": acct_buf.getvalue(),
                "lariat_records": lariat,
                "syslog": _rationalize(cfg.name, records, raw)}

    # -- fast path ----------------------------------------------------------------

    def run(self, warehouse: Warehouse | None = None,
            with_syslog: bool = True) -> FacilityRun:
        """Fast path: behaviour → summaries + series → warehouse."""
        cfg = self.config
        workload, sim, outages, _cluster = self._simulate()
        warehouse = warehouse or Warehouse()
        warehouse.add_system(
            cfg.name, num_nodes=cfg.num_nodes,
            cores_per_node=cfg.node.cores,
            mem_gb_per_node=cfg.node.memory_gb,
            peak_tflops=cfg.peak_tflops,
            sample_interval=cfg.sample_interval,
        )

        interval = cfg.sample_interval
        n_bins = int(cfg.horizon // interval) + 1
        bin_times = np.arange(n_bins) * interval
        acc = {
            name: np.zeros(n_bins)
            for name in ("flops_gf", "mem_gb", "idle_nodes_equiv",
                         "user_nodes_equiv", "sys_nodes_equiv",
                         "io_scratch_write_mb", "io_work_write_mb",
                         "io_share_write_mb", "ib_tx_mb", "busy_nodes")
        }

        summaries: list[JobSummary] = []
        syslog_gen = SyslogGenerator(self._stream("syslog"), cfg.name)
        raw_messages = []

        with span("facility.summarize", system=cfg.name):
            for record in sim.records:
                behavior = self._behavior_for(record, workload)
                m = max(1, int(np.ceil(record.wall_seconds / interval)))
                rates = behavior.rates_matrix(m)
                summary = summarize_job_from_rates(
                    record, rates, mem_capacity_gb=cfg.node.memory_gb
                )
                summaries.append(summary)
                warehouse.add_job(cfg.name, record, cfg.node.cores,
                                  summary=summary)

                nodes = record.request.nodes
                bin0 = int(record.start_time // interval)
                bins = bin0 + np.arange(rates.shape[0])
                ok = bins < n_bins
                bins, r = bins[ok], rates[ok]
                if bins.size == 0:
                    continue
                idle = DerivedRates.cpu_idle(r)
                np.add.at(acc["flops_gf"], bins, r[:, _I_FLOPS] * nodes)
                np.add.at(acc["mem_gb"], bins, r[:, _I_MEM] * nodes)
                np.add.at(acc["idle_nodes_equiv"], bins, idle * nodes)
                np.add.at(acc["user_nodes_equiv"], bins,
                          r[:, RATE_INDEX["cpu_user_frac"]] * nodes)
                np.add.at(acc["sys_nodes_equiv"], bins,
                          r[:, RATE_INDEX["cpu_sys_frac"]] * nodes)
                for fs in ("scratch", "work", "share"):
                    np.add.at(acc[f"io_{fs}_write_mb"], bins,
                              r[:, RATE_INDEX[f"io_{fs}_write_mb"]] * nodes)
                np.add.at(acc["ib_tx_mb"], bins,
                          DerivedRates.ib_tx_mb(r) * nodes)
                np.add.at(acc["busy_nodes"], bins, float(nodes))

                if with_syslog:
                    raw_messages.extend(syslog_gen.generate_for_job(
                        record,
                        mem_frac_max=summary.get("mem_used_max")
                        / cfg.node.memory_gb,
                        scratch_write_mb=summary.get("io_scratch_write"),
                        cpu_idle_frac=summary.get("cpu_idle"),
                    ))

        # Active-node step function sampled on the bin grid.
        tl_t = np.array([t for t, _ in sim.active_node_timeline])
        tl_n = np.array([n for _, n in sim.active_node_timeline])
        idx = np.clip(np.searchsorted(tl_t, bin_times, side="right") - 1,
                      0, len(tl_n) - 1)
        active = tl_n[idx].astype(float)

        busy = acc["busy_nodes"]
        free = np.maximum(active - busy, 0.0)
        denom = np.maximum(active, 1.0)
        idle_frac = np.where(
            active > 0, (acc["idle_nodes_equiv"] + free) / denom, 1.0
        )
        user_frac = np.where(active > 0, acc["user_nodes_equiv"] / denom, 0.0)
        sys_frac = np.where(active > 0, acc["sys_nodes_equiv"] / denom, 0.0)
        # Every up node carries the OS's resident footprint; job memory
        # adds on top (the mem collector reports the same decomposition).
        from repro.ingest.summarize import BASE_OS_GB
        mem_per_node = np.where(
            active > 0, acc["mem_gb"] / denom + BASE_OS_GB, 0.0
        )
        ib_per_node = np.where(active > 0, acc["ib_tx_mb"] / denom, 0.0)

        series = {
            "active_nodes": active,
            "busy_nodes": busy,
            "flops_tf": acc["flops_gf"] / 1000.0,
            "mem_used_gb_per_node": mem_per_node,
            "cpu_idle_frac": idle_frac,
            "cpu_user_frac": user_frac,
            "cpu_sys_frac": sys_frac,
            "io_scratch_write_mb": acc["io_scratch_write_mb"],
            "io_work_write_mb": acc["io_work_write_mb"],
            "io_share_write_mb": acc["io_share_write_mb"],
            "net_ib_tx_mb": ib_per_node,
        }
        with span("facility.series", system=cfg.name):
            for name, values in series.items():
                warehouse.add_series(cfg.name, name, bin_times, values)

        if with_syslog and raw_messages:
            raw_messages.extend(syslog_gen.generate_background(
                cfg.num_nodes, cfg.horizon
            ))
            for msg in _rationalize(cfg.name, sim.records, raw_messages):
                warehouse.add_syslog_event(
                    cfg.name, msg.time, msg.host, msg.jobid,
                    msg.kind.value, msg.severity,
                )

        warehouse.commit()
        return FacilityRun(
            config=cfg, warehouse=warehouse, workload=workload, sim=sim,
            outages=outages,
        )

    # -- slow (file-format) path ---------------------------------------------------

    def run_with_files(
        self,
        archive_dir: str,
        warehouse: Warehouse | None = None,
        compress: bool = True,
        workers: int = 1,
        ingest_workers: int = 1,
        batch_size: int = 256,
        error_policy: str = "strict",
        max_retries: int = 2,
        ingest_mode: str = "full",
        ingest_through_day: int | None = None,
        archive_format: str = "text",
    ) -> FacilityRun:
        """Slow path: the replay writes the archive; ingest parses it back.

        Intended for small configs (``TEST_SYSTEM``-scale): cost is
        O(nodes × samples × collectors).  The per-node replay is
        embarrassingly parallel — every node owns its own files and RNG
        stream — so ``workers > 1`` fans it out over a process pool with
        byte-identical output (asserted by tests).  ``ingest_workers``
        and ``batch_size`` are forwarded to
        :meth:`~repro.ingest.pipeline.IngestPipeline.ingest`, which makes
        the same determinism promise for the read-back side.
        *error_policy* and *max_retries* select the ingest's
        fault-tolerance behaviour (see :class:`repro.errors.ErrorPolicy`
        and ``docs/ROBUSTNESS.md``); the default is strict, exactly as
        before.  *ingest_mode* / *ingest_through_day* drive the
        incremental-ingest path (``docs/PERFORMANCE.md``): the replay
        always writes the full horizon, but ``ingest_through_day=N``
        consumes only the first N facility days, and a later
        ``ingest_mode="append"`` run folds in just the remainder.
        *archive_format* selects the on-disk format the replay writes
        (``"text"`` or ``"v2"`` columnar); ingest autodetects per file,
        and both formats produce byte-identical warehouses (asserted by
        tests and the columnar bench).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        cfg = self.config
        workload, sim, outages, _cluster = self._simulate()

        tasks = [
            (cfg, self.seed, workload.users, workload.util_scale,
             self.phase_calibration, self.regressions, sim.records, chunk,
             archive_dir, compress, archive_format)
            for chunk in _node_chunks(cfg.num_nodes, workers)
        ]
        with span("facility.replay", system=cfg.name, workers=workers):
            if len(tasks) == 1:
                partials = [_replay_nodes(*tasks[0])]
            else:
                import multiprocessing

                with multiprocessing.Pool(len(tasks)) as pool:
                    partials = pool.starmap(_replay_nodes, tasks)
            archive_stats = ArchiveStats()
            for p, snap in partials:
                archive_stats.raw_bytes += p.raw_bytes
                archive_stats.compressed_bytes += p.compressed_bytes
                archive_stats.file_count += p.file_count
                archive_stats.host_days += p.host_days
                get_registry().merge_snapshot(snap)
        archive = HostArchive(archive_dir, compress=compress)

        warehouse = warehouse or Warehouse()
        pipeline = IngestPipeline(warehouse)
        report = pipeline.ingest(
            cfg,
            archive=archive,
            **self.side_logs(workload, sim.records),
            workers=ingest_workers,
            batch_size=batch_size,
            error_policy=error_policy,
            max_retries=max_retries,
            mode=ingest_mode,
            through_day=ingest_through_day,
        )
        return FacilityRun(
            config=cfg, warehouse=warehouse, workload=workload, sim=sim,
            outages=outages, ingest_report=report,
            archive_stats=archive_stats,
        )
