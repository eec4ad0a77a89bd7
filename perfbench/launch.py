"""Child-process entry point: run one program process for the benchmark.

    python3 perfbench/launch.py MODE RESULT TRACE [ARGS...]

``MODE`` is ``simulate`` or ``serve`` (the ``repro-simulate`` /
``repro-serve`` entry points, given ``ARGS``; ``serve`` may take
``--after FILE`` first, to start serving once that file exists) or
``live`` (the live writer below).  ``TRACE`` is ``1`` to wrap the layer calls of
:mod:`perfbench.layers` before the program runs.  When the process
ends, a JSON object is written to ``RESULT``: when the program was
imported and ready (``CLOCK_MONOTONIC``, shared with the parent), when
it finished, its exit status, and, when traced, its spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Recorder, patch  # noqa: E402


def _observe_ingest() -> Recorder:
    """Count how many jobs the accounting log holds and how the matcher
    sorted them, for the nightly output check."""
    def accounted(rec, args, _result):
        rec.count("accounting_jobs", args[0].lines_written)

    def matched(rec, _args, result):
        report = result[1]
        for name in ("too_short", "no_stats", "window_mismatch"):
            rec.count(name, len(getattr(report, name)))

    rec = Recorder()
    patch(rec, "repro.scheduler.accounting:AccountingWriter.write_all",
          None, accounted)
    patch(rec, "repro.ingest.matcher:match_job_views", None, matched)
    return rec


def run_live(argv: list[str], out: dict) -> int:
    """The live writer: build a :class:`LiveSession` over the warehouse a
    server will read, report ready on stdout, wait for ``go`` on stdin,
    then run every micro-batch back to back, saying ``jobs`` on stdout
    after the batch that loads the first jobs.

    ``argv``: system nodes days seed archive_dir warehouse segment_s
    ready_marker (a file created once the warehouse can be served).
    """
    from repro.cli.common import SYSTEMS
    from repro.facility import Facility
    from repro.ingest.warehouse import Warehouse
    from repro.live.runner import LiveSession

    system, nodes, days, seed, archive, path, segment, marker = argv
    cfg = SYSTEMS[system].scaled(num_nodes=int(nodes),
                                 horizon_days=float(days))
    warehouse = Warehouse(path)
    session = LiveSession(Facility(cfg, seed=int(seed)), archive,
                          warehouse=warehouse,
                          segment_seconds=int(segment))
    # The first ingest would register the system; do it up front (the
    # same row) so a server can open the file before batch 0.
    warehouse.add_system(cfg.name, num_nodes=cfg.num_nodes,
                         cores_per_node=cfg.node.cores,
                         mem_gb_per_node=cfg.node.memory_gb,
                         peak_tflops=cfg.peak_tflops,
                         sample_interval=cfg.sample_interval)
    out["ready"] = time.monotonic()
    Path(marker).touch()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    batches = []
    report = None
    while not session.done:
        start = time.monotonic()
        report = session.run_batch()
        end = time.monotonic()
        batches.append([start, end, report.t_end,
                        warehouse.live_high_water(cfg.name)])
        if report.jobs_total and report.jobs_total == report.jobs_loaded:
            print("jobs", flush=True)  # the first jobs are loaded
    out["batches"] = batches
    out["jobs_deferred"] = (report.delta.jobs_deferred
                            if report is not None and report.delta
                            else -1)
    out["jobs_total"] = warehouse.job_count(cfg.name)
    warehouse.close()
    return 0


def main() -> int:
    mode, result, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    if mode == "simulate":
        import repro.cli.simulate as cli
    elif mode == "serve":
        import repro.cli.serve as cli
    elif mode == "live":
        cli = None
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if argv[:1] == ["--after"]:
        # Serve a warehouse another process is still creating.
        marker, argv = Path(argv[1]), argv[2:]
        deadline = time.monotonic() + 120
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    out: dict = {"ready": time.monotonic()}
    rec = None
    if trace:
        from perfbench import layers

        rec = layers.install()
    observed = _observe_ingest() if mode == "simulate" else None
    try:
        rc = run_live(argv, out) if cli is None else cli.main(argv)
    finally:
        out["end"] = time.monotonic()
        if observed is not None:
            out.update(observed.counts)
        if rec is not None:
            out.update(layers.process_dump(rec))
        tmp = f"{result}.tmp"
        with open(tmp, "w") as fh:
            json.dump(out, fh)
        os.replace(tmp, result)
    return rc


if __name__ == "__main__":
    sys.exit(main())
