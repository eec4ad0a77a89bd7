"""Which public calls the traced run wraps, and the per-layer metrics
derived from the spans and the program's own counters.

Every per-layer metric is listed in :data:`PER_LAYER` with its unit;
``*_s`` metrics are self times (span duration minus child spans) summed
over the run's processes.  A layer the workload does not reach reports
0.
"""

from __future__ import annotations

from perfbench.tracing import Recorder, call_counts, patch, self_times


def _count(name, size):
    def on_call(rec, args, result):
        rec.count(name, size(args, result))
    return on_call


def _gzip_calls(rec, args, result):
    rec.count("archive.gzip_calls")
    rec.count("archive.gzip_bytes_in", len(args[0]))


_REPORTS = ("UserReport", "DeveloperReport", "SupportStaffReport",
            "AdminReport", "ResourceManagerReport", "FundingAgencyReport")

#: (target, span name or None for a count only, work-count hook).
WRAPS = [
    ("repro.workload.generator:WorkloadGenerator.generate",
     "workload.generate", None),
    ("repro.scheduler.engine:SchedulerEngine.run", "scheduler.run",
     _count("scheduler.jobs", lambda a, r: len(r.records))),
    ("repro.scheduler.accounting:AccountingWriter.write_all",
     "sidelogs.build", None),
    ("repro.syslogr.generator:SyslogGenerator.generate_for_job",
     "sidelogs.build", None),
    ("repro.syslogr.rationalizer:Rationalizer.rationalize_stream",
     "sidelogs.build", None),
    ("repro.tacc_stats.synth:NodeSynth.flush", "synth.flush", None),
    ("repro.tacc_stats.columnar:source_fingerprint_for_text",
     "archive.fingerprint",
     _count("archive.fingerprint_bytes", lambda a, r: len(a[0]))),
    # Counted only: the gzip time stays in the caller's self time.
    ("gzip:compress", None, _gzip_calls),
    ("repro.tacc_stats.columnar:encode_host_blocks", "columnar.encode",
     _count("columnar.bytes_encoded", lambda a, r: len(r))),
    ("repro.tacc_stats.columnar:encode_host_text", "columnar.encode",
     _count("columnar.bytes_encoded", lambda a, r: len(r))),
    ("repro.tacc_stats.archive:HostArchive.close", "archive.close", None),
    ("repro.tacc_stats.archive:HostArchive.flush_before", "archive.close",
     None),
    ("repro.tacc_stats.archive:HostArchive.manifest", "archive.manifest",
     None),
    ("repro.ingest.parallel:scan_archive", "ingest.scan", None),
    ("repro.tacc_stats.parser:parse_host_text", "parser.parse", None),
    ("repro.ingest.columnar_scan:scan_v2_host", "ingest.v2_scan", None),
    ("repro.ingest.summarize:host_job_partials", "ingest.summarize", None),
    ("repro.ingest.columnar_scan:columnar_partials", "ingest.summarize",
     None),
    ("repro.ingest.matcher:match_job_views", "ingest.match", None),
    ("repro.ingest.warehouse:Warehouse.add_job", "ingest.load", None),
    ("repro.ingest.warehouse:Warehouse.commit", "ingest.load", None),
    ("repro.ingest.warehouse:Warehouse.ledger_map", "ingest.ledger", None),
    ("repro.ingest.warehouse:Warehouse.record_ledger", "ingest.ledger",
     None),
    ("repro.xdmod.snapshot:SystemFrame.__init__", "snapshot.frame_build",
     None),
    ("repro.xdmod.snapshot:WarehouseSnapshot.refresh", "snapshot.refresh",
     None),
    *((f"repro.xdmod.reports:{cls}._render", "reports.render", None)
      for cls in _REPORTS),
    ("repro.xdmod.query:JobQuery.group_by", "query.group_by", None),
    ("repro.live.runner:LiveSession.run_batch", "live.batch", None),
    ("repro.live.runner:LiveReplay.advance", "live.replay", None),
    ("repro.ingest.pipeline:IngestPipeline.ingest", "live.append", None),
    ("repro.ingest.warehouse:Warehouse.live_counters", "live.top", None),
    ("repro.live.rates:RateEngine.observe", "live.top", None),
]

#: Self-time metrics: metric name -> span name.
SELF_TIME = {
    "workload.generate_s": "workload.generate",
    "scheduler.run_s": "scheduler.run",
    "sidelogs.build_s": "sidelogs.build",
    "synth.flush_s": "synth.flush",
    "archive.fingerprint_s": "archive.fingerprint",
    "columnar.encode_s": "columnar.encode",
    "archive.close_s": "archive.close",
    "archive.manifest_s": "archive.manifest",
    "ingest.scan_s": "ingest.scan",
    "parser.parse_s": "parser.parse",
    "ingest.v2_scan_s": "ingest.v2_scan",
    "ingest.summarize_s": "ingest.summarize",
    "ingest.match_s": "ingest.match",
    "ingest.load_s": "ingest.load",
    "ingest.ledger_s": "ingest.ledger",
    "snapshot.frame_build_s": "snapshot.frame_build",
    "snapshot.refresh_s": "snapshot.refresh",
    "reports.render_s": "reports.render",
    "query.group_by_s": "query.group_by",
    "live.batch_s": "live.batch",
    "live.replay_s": "live.replay",
    "live.append_s": "live.append",
    "live.top_s": "live.top",
}

#: Program counters reported as they are: metric -> registry counter.
COUNTERS = {
    "synth.rows": "synth.rows",
    "archive.files_written": "archive.files_written",
    "archive.bytes_raw": "archive.bytes_raw",
    "archive.manifest_files": "archive.manifest_files",
    "parser.bytes": "parse.bytes",
    "parser.lines": "parse.lines",
    "columnar.bytes_mapped": "archive.v2.bytes_mapped",
    "warehouse.commits": "warehouse.commits",
    "ingest.files_new": "ingest.delta.files_new",
    "ingest.files_lookback": "ingest.delta.files_lookback",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "workload.generate_s": "s",
    "scheduler.run_s": "s",
    "scheduler.jobs": "count",
    "sidelogs.build_s": "s",
    "synth.flush_s": "s",
    "synth.rows": "count",
    "archive.fingerprint_s": "s",
    "archive.fingerprint_bytes": "B",
    "archive.gzip_calls": "count",
    "archive.gzip_bytes_in": "B",
    "columnar.encode_s": "s",
    "columnar.bytes_encoded": "B",
    "archive.close_s": "s",
    "archive.files_written": "count",
    "archive.bytes_raw": "B",
    "archive.bytes_stored": "B",
    "archive.stored_bytes_per_node_day": "B",
    "archive.manifest_s": "s",
    "archive.manifest_files": "count",
    "ingest.scan_s": "s",
    "parser.parse_s": "s",
    "parser.bytes": "B",
    "parser.lines": "count",
    "ingest.v2_scan_s": "s",
    "columnar.bytes_mapped": "B",
    "ingest.summarize_s": "s",
    "ingest.match_s": "s",
    "ingest.load_s": "s",
    "warehouse.commits": "count",
    "warehouse.rows": "count",
    "ingest.ledger_s": "s",
    "ingest.files_new": "count",
    "ingest.files_lookback": "count",
    "ingest.useful_file_share": "ratio",
    "ingest.read_amplification": "ratio",
    "snapshot.frame_build_s": "s",
    "snapshot.refresh_s": "s",
    "snapshot.refreshes": "count",
    "snapshot.memo_hit_ratio": "ratio",
    "reports.render_s": "s",
    "reports.renders": "count",
    "query.group_by_s": "s",
    "service.l1_hit_ratio": "ratio",
    "service.coalesced_share": "ratio",
    "service.server_mean_ms": "ms",
    "serve.read_p50_ms": "ms",
    "serve.read_p90_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.capacity_rps": "1/s",
    "live.batch_s": "s",
    "live.replay_s": "s",
    "live.append_s": "s",
    "live.top_s": "s",
    "live.batch_p50_ms": "ms",
    "live.batch_p90_ms": "ms",
    "live.freshness_p50_ms": "ms",
    "live.freshness_p90_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def install() -> Recorder:
    """Wrap every call in :data:`WRAPS`; returns the span recorder."""
    rec = Recorder()
    for target, name, on_call in WRAPS:
        patch(rec, target, name, on_call)
    return rec


def process_dump(rec: Recorder) -> dict:
    """What one traced process hands back: its spans, the wrappers'
    work counts and the program's own metric registry."""
    from repro.telemetry.metrics import get_registry

    snap = get_registry().snapshot()
    latency = snap.histograms.get("service.latency.seconds")
    return {
        **rec.to_dict(),
        "counters": dict(snap.counters),
        "latency_total": latency.total if latency else 0.0,
        "latency_count": latency.count if latency else 0,
    }


def derive(dumps: list[dict]) -> dict[str, float]:
    """Per-layer values from the traced processes of one run.

    Metrics measured outside the program (cli, client-side service
    ratios, live timings, trace overhead) are filled in by the caller.
    """
    spans = [s for d in dumps for s in d["spans"]]
    selfs = self_times(spans)
    calls = call_counts(spans)
    counts: dict[str, float] = {}
    counters: dict[str, float] = {}
    for d in dumps:
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIME.items()}
    out.update({metric: counters.get(name, 0.0)
                for metric, name in COUNTERS.items()})
    for name in ("scheduler.jobs", "archive.fingerprint_bytes",
                 "archive.gzip_calls", "archive.gzip_bytes_in",
                 "columnar.bytes_encoded"):
        out[name] = counts.get(name, 0.0)
    out["reports.renders"] = calls.get("reports.render", 0)
    out["snapshot.refreshes"] = calls.get("snapshot.refresh", 0)
    out["warehouse.rows"] = sum(v for k, v in counters.items()
                                if k.startswith("warehouse.rows."))
    files_read = (counters.get("parse.files", 0.0)
                  + counters.get("archive.v2.files_read", 0.0))
    written = counters.get("archive.files_written", 0.0)
    out["ingest.useful_file_share"] = written / files_read if files_read else 0.0
    bytes_read = (counters.get("parse.bytes", 0.0)
                  + counters.get("archive.v2.bytes_mapped", 0.0))
    bytes_written = (counters.get("archive.v2.bytes_encoded")
                     or counters.get("archive.bytes_raw", 0.0))
    out["ingest.read_amplification"] = (bytes_read / bytes_written
                                        if bytes_written else 0.0)
    hits = counters.get("analytics.cache_hits", 0.0)
    misses = counters.get("analytics.cache_misses", 0.0)
    out["snapshot.memo_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    n = sum(d["latency_count"] for d in dumps)
    out["service.server_mean_ms"] = (
        1e3 * sum(d["latency_total"] for d in dumps) / n if n else 0.0)
    return out
