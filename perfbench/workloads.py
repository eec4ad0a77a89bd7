"""The four benchmark workloads.

Each function runs one workload end to end through the program's own
entry points and returns an :class:`Outcome`: the end-to-end values,
the workload's other measurements (per-layer values, filled in further
by a traced pass), and the output checks.  ``perfbench/README.md`` says
why each workload exists and which layers it should move.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sqlite3
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers, loadgen, stats
from perfbench.loadgen import SYSTEM, Client, Request
from perfbench.procs import ROOT, Proc, ProcessFailed, start_server

#: The simulated facility of the nightly and live workloads.  It is
#: fixed: the job count of a 32-node x 2-day Ranger period varies by
#: about 20 % (quartile spread over seeds 1-10) and moves the run time
#: with it, more than the bounds allow, so ``--seed`` varies only what
#: the benchmark sends (request streams), not the facility.
FACILITY_SEED = 2013
#: The nightly facility period, run in both archive formats.
NIGHTLY_NODES, NIGHTLY_DAYS = 32, 2
#: Nightly runs per workload run; ``run_s`` is their median.
NIGHTLY_RUNS = 2
#: The fixed warehouse ``serve_read`` serves (about 10.7k jobs).
SERVE_NODES, SERVE_DAYS = 128, 30
#: The live period and its rotation: 116 micro-batches.
LIVE_NODES, LIVE_DAYS, LIVE_SEGMENT = 8, 4, 3000

#: Tenants sending served reads; above the server's 64-tenant L1 cap.
TENANTS = 128
#: Open-loop rates (requests/s), low enough that a request rarely
#: queues behind another, so the latencies measure service rather than
#: queueing noise.  ``serve_read`` sends for ``--seconds``; ``live_serve``
#: sends :data:`READ_REQUESTS` while the writer streams.
SERVE_RATE = 100.0
LIVE_READ_RATE = 80.0
READ_REQUESTS = 1000
#: Requests in the closed-loop capacity phase of ``serve_read``.
CLOSED_REQUESTS = 2000
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Report responses per run compared with an in-process render.
RENDER_CHECKS = 4


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``values`` are the end-to-end metrics; ``layer`` holds everything
    else the run measured, under the per-layer names of
    :data:`perfbench.layers.PER_LAYER`.  ``samples`` counts the samples
    behind a value of either kind.
    """

    values: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation or output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def put(self, name: str, value: float, n: int = 1) -> None:
        """An end-to-end value from *n* samples."""
        self.values[name] = value
        self.samples[name] = n

    def put_layer(self, name: str, value: float, n: int = 1) -> None:
        self.layer[name] = value
        self.samples[name] = n


class Work:
    """A scratch directory inside the checkout, removed afterwards."""

    def __init__(self, name: str):
        self.dir = ROOT / ".perfbench_work" / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "processes.log"

    def sub(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file())


def table_digest(warehouse: Path) -> str:
    """sha256 over the sorted ``jobs``, ``job_metrics`` and
    ``syslog_events`` rows."""
    h = hashlib.sha256()
    con = sqlite3.connect(f"file:{warehouse}?mode=ro", uri=True)
    try:
        for table in ("jobs", "job_metrics", "syslog_events"):
            rows = con.execute(f"SELECT * FROM {table}").fetchall()
            h.update(table.encode())
            for row in sorted(rows, key=repr):
                h.update(repr(row).encode())
    finally:
        con.close()
    return h.hexdigest()


def job_count(warehouse: Path) -> int:
    con = sqlite3.connect(f"file:{warehouse}?mode=ro", uri=True)
    try:
        return con.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
    finally:
        con.close()


# -- served reads -------------------------------------------------------------

def _distil(body: dict | None, keep_text: bool) -> dict | None:
    """The fields the benchmark keeps from a response body."""
    if body is None:
        return None
    out = {k: body.get(k) for k in ("cached", "coalesced", "generation")}
    if keep_text:
        out["report"] = body.get("report")
    return out


def _timed(clients: list[Client], requests: list[Request]):
    """A ``send`` for the load loops that keeps the raw response;
    parsing waits until :func:`_parsed`, outside the timed wave."""
    def send(w, i):
        status, raw, done = clients[w].get(requests[i])
        return True, (status, raw), done
    return send


def _parsed(out: Outcome, requests: list[Request], samples,
            keep=frozenset()) -> None:
    """Parse and check each response kept by :func:`_timed`; a sample
    keeps only the fields the benchmark reads."""
    for i, (req, s) in enumerate(zip(requests, samples)):
        s.ok, body = loadgen.parse(*s.body)
        s.body = _distil(body, i in keep)
        out.op(s.ok, f"request {req.path} failed")


def read_wave(out: Outcome, clients: list[Client], requests: list[Request],
              offsets: list[float], keep=frozenset()) -> list:
    """One open-loop wave; every request counts as an operation.
    Records the latencies from due time, the generator's lateness and
    the cache ratios; returns the samples."""
    samples = loadgen.open_loop(offsets, _timed(clients, requests),
                                workers=len(clients))
    _parsed(out, requests, samples, keep)
    lat = [1e3 * s.latency for s in samples if s.ok]
    top = stats.tail_percentile(len(lat)) or 0.0
    for p in stats.LADDER:
        if p <= top:
            out.put_layer(f"serve.read_p{p:g}_ms", stats.percentile(lat, p),
                          len(lat))
    out.put_layer("loadgen.late_p99_ms", stats.percentile(
        [1e3 * s.late for s in samples], 99.0), len(samples))
    cacheable = [s.body for s in samples
                 if s.ok and s.body.get("cached") is not None]
    if cacheable:
        n = len(cacheable)
        out.put_layer("service.l1_hit_ratio",
                      sum(1 for b in cacheable if b["cached"]) / n, n)
        out.put_layer("service.coalesced_share",
                      sum(1 for b in cacheable if b.get("coalesced")) / n, n)
    return samples


def warm(out: Outcome, port: int, head: list) -> None:
    """Open every head key once before timing, as the dashboards that
    are already open would have: lazy loads (series, frames) and the
    head's first renders are set-up, not steady serving."""
    client = Client(port)
    try:
        for template in head:
            ok, _body, _done = client.fetch(loadgen.request(template, "warm"))
            out.op(ok, f"warm-up {template} failed")
    finally:
        client.close()


def check_renders(out: Outcome, warehouse: Path,
                  served: list[tuple[Request, dict]]) -> None:
    """Each served report must equal an in-process ``render()`` at the
    same generation."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.ingest.warehouse import Warehouse
    from repro.service.state import REPORT_KINDS

    wh = Warehouse(str(warehouse))
    try:
        for req, body in served:
            kind, target = req.report
            args = () if target is None else (target,)
            text = REPORT_KINDS[kind](wh, SYSTEM).render(*args)
            out.op(body is not None
                   and body["generation"] == wh.generation
                   and body["report"] == text,
                   f"served {kind} {target} differs from render()")
    finally:
        wh.close()


# -- nightly ------------------------------------------------------------------

def _simulate(work: Work, tag: str, fmt: str, trace: bool) -> dict:
    """One ``repro-simulate --archive`` run on fresh directories."""
    d = work.sub(tag)
    proc = Proc("simulate", d / "result.json", trace, [
        "--system", SYSTEM, "--nodes", NIGHTLY_NODES,
        "--days", NIGHTLY_DAYS, "--seed", FACILITY_SEED,
        "--warehouse", d / "w.sqlite", "--archive", d / "archive",
        "--archive-format", fmt, "--quiet",
        "--telemetry-out", d / "manifest.json"], work.log)
    rc = proc.wait(170)
    run = {"rc": rc, "dir": d, "rss": proc.peak_rss_mb}
    if rc == 0:
        res = proc.outcome()
        run.update(setup=res["ready"] - proc.spawned,
                   run=res["end"] - res["ready"], dump=res)
    return run


def _check_nightly(out: Outcome, run: dict) -> None:
    """Every host ok; every accounting job long enough to match was
    matched to monitoring data and loaded."""
    manifest = json.loads((run["dir"] / "manifest.json").read_text())
    health = manifest["ingest_health"]
    out.op(len(health["hosts_ok"]) == NIGHTLY_NODES
           and not (health["hosts_degraded"] or health["hosts_dropped"]
                    or health["quarantined"]),
           f"not every host ok: {health}")
    res = run["dump"]
    loaded = job_count(run["dir"] / "w.sqlite")
    expected = res.get("accounting_jobs", -1) - res.get("too_short", 0)
    out.op(loaded == expected
           == manifest["metrics"]["counters"].get("ingest.jobs_loaded")
           and res.get("no_stats", -1) == res.get("window_mismatch", -1) == 0,
           f"{loaded} jobs loaded, {expected} matchable in accounting")


def nightly(out: Outcome, fmt: str, seed: int, seconds: int,
            trace: bool) -> None:
    """:data:`NIGHTLY_RUNS` nightly runs in *fmt*, checked against the
    same facility in the other format.  The runs are fixed work with no
    generated traffic, so neither *seed* nor *seconds* applies."""
    work = Work(f"nightly_{fmt}-{seed}")
    other = "text" if fmt == "v2" else "v2"
    try:
        runs = [_simulate(work, f"run{k}", fmt, False)
                for k in range(NIGHTLY_RUNS)]
        check = _simulate(work, "check", other, False)
        traced = _simulate(work, "traced", fmt, True) if trace else None
        for r in (*runs, check, traced):
            if r is not None:
                out.op(r["rc"] == 0, f"simulate exited {r['rc']}")
        if out.failed:
            return
        for r in (*runs, check):
            _check_nightly(out, r)
        digests = {table_digest(r["dir"] / "w.sqlite")
                   for r in (*runs, check)}
        out.op(len(digests) == 1, f"{fmt} and {other} warehouses differ")

        setups = [r["setup"] for r in (*runs, check)]
        out.put("setup_s", stats.median(setups), len(setups))
        out.put("run_s", stats.median([r["run"] for r in runs]), len(runs))
        out.put("peak_rss_mb", max(r["rss"] for r in runs), len(runs))
        stored = tree_bytes(runs[0]["dir"] / "archive")
        out.put_layer("archive.bytes_stored", stored)
        out.put_layer("archive.stored_bytes_per_node_day",
                      stored / (NIGHTLY_NODES * NIGHTLY_DAYS))
        if trace:
            out.layer.update(layers.derive([traced["dump"]]))
            out.put_layer("trace.overhead_frac",
                          traced["run"] / out.values["run_s"])
    finally:
        work.close()


# -- serve_read ---------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def serve_warehouse(work: Work) -> Path:
    """The fixed ``serve_read`` warehouse, built with ``repro-simulate``
    once per source tree and kept under ``.perfbench_cache``."""
    cache = ROOT / ".perfbench_cache"
    cache.mkdir(exist_ok=True)
    path = cache / f"serve-{_source_digest()}.sqlite"
    if not path.exists():
        tmp = work.sub("build") / "w.sqlite"
        proc = Proc("simulate", work.dir / "build.json", False, [
            "--system", SYSTEM, "--nodes", SERVE_NODES,
            "--days", SERVE_DAYS, "--seed", FACILITY_SEED,
            "--warehouse", tmp, "--quiet"], work.log)
        if proc.wait(170) != 0:
            raise ProcessFailed("building the serve warehouse failed")
        shutil.move(str(tmp), path)
    return path


SUPPORT = Request(f"/api/v1/report/support?system={SYSTEM}", "t000",
                  ("support", None))


def _serve_setup(out: Outcome, work: Work, warehouse: Path, tag: str,
                 trace: bool):
    """Start a server; ready once the first ``support`` report is back.
    Returns ``(server, port, setup seconds, distilled support body)``."""
    server, port = start_server(warehouse, work.dir / f"{tag}.json", trace,
                                work.log)
    client = Client(port)
    try:
        ok, body, done = client.fetch(SUPPORT)
    finally:
        client.close()
    out.op(ok, "first support report failed")
    return server, port, done - server.spawned, _distil(body, True)


def _serve_pass(out: Outcome, port: int, head: list,
                requests: list[Request], offsets: list[float],
                keep: set[int]) -> tuple[list, float]:
    """Warm-up, the open-loop wave, then the closed-loop requests that
    follow it in *requests*.  Returns the wave's samples and the
    closed-loop seconds."""
    warm(out, port, head)
    n_open = len(offsets)
    clients = [Client(port), Client(port)]
    try:
        samples = read_wave(out, clients, requests[:n_open], offsets, keep)
        rest = requests[n_open:]
        elapsed, closed = loadgen.closed_loop(
            len(rest), _timed(clients, rest), workers=len(clients))
    finally:
        for c in clients:
            c.close()
    _parsed(out, rest, closed)
    return samples, elapsed


def serve_read(out: Outcome, seed: int, seconds: int, trace: bool) -> None:
    """Read-only serving of a fixed large warehouse: set-ups, an
    open-loop Zipf wave from 128 tenants for *seconds*, then a
    closed-loop capacity run of :data:`CLOSED_REQUESTS`."""
    work = Work(f"serve_read-{seed}")
    try:
        warehouse = serve_warehouse(work)
        rng = random.Random(seed)
        head, tail = loadgen.key_space(warehouse)
        # The head keeps its order, so every seed draws the costly head
        # keys (timeseries) at the same rates; the tail, whose keys cost
        # about the same, is ranked by the seed, once for the whole run.
        tail = rng.sample(tail, len(tail))
        n_open = int(SERVE_RATE * seconds)
        # Timeseries bodies take ~20 ms each to serialize; in the timed
        # open loop their collisions alone would set the tail, so they
        # are sent in the warm-up and the closed loop only.
        charts = [h for h in head if "/timeseries/" in str(h)]
        requests = loadgen.zipf_mix(
            rng, [h for h in head if h not in charts] + tail, n_open,
            TENANTS) + loadgen.zipf_mix(rng, head + tail, CLOSED_REQUESTS,
                                        TENANTS)
        offsets = loadgen.even_offsets(SERVE_RATE, n_open)
        reports = [i for i in range(n_open) if requests[i].report]
        keep = set(rng.sample(reports, min(RENDER_CHECKS, len(reports))))

        setups = []
        for k in range(SETUPS - 1):
            server, _port, setup, _body = _serve_setup(
                out, work, warehouse, f"setup{k}", False)
            setups.append(setup)
            out.op(server.stop() == 0, "server failed")
        server, port, setup, support = _serve_setup(out, work, warehouse,
                                                    "main", False)
        setups.append(setup)
        try:
            samples, elapsed = _serve_pass(out, port, head, requests,
                                           offsets, keep)
        finally:
            out.op(server.stop() == 0, "server failed")
        out.put("setup_s", stats.median(setups), len(setups))
        out.put("run_s", elapsed, CLOSED_REQUESTS)
        out.put("peak_rss_mb", server.peak_rss_mb)
        out.put_layer("serve.capacity_rps", CLOSED_REQUESTS / elapsed,
                      CLOSED_REQUESTS)
        served = [(SUPPORT, support)] + [
            (requests[i], samples[i].body) for i in sorted(keep)
            if samples[i].ok]
        check_renders(out, warehouse, served)

        if trace:
            measured = dict(out.layer)
            server, port, _setup, _body = _serve_setup(
                out, work, warehouse, "traced", True)
            try:
                _samples, traced_elapsed = _serve_pass(
                    out, port, head, requests, offsets, set())
            finally:
                out.op(server.stop() == 0, "server failed")
            out.layer = {**measured, **layers.derive([server.outcome()])}
            out.put_layer("trace.overhead_frac", traced_elapsed / elapsed)
    finally:
        work.close()


# -- live_serve ---------------------------------------------------------------

def _live_pair(out: Outcome, work: Work, tag: str, trace: bool):
    """Start the live writer and a server on its warehouse; ready when
    the session is built and the server answers ``health``.  Returns
    ``(writer, server, port, setup seconds, directory)``."""
    d = work.sub(tag)
    writer = Proc("live", d / "writer.json", trace, [
        SYSTEM, LIVE_NODES, LIVE_DAYS, FACILITY_SEED, d / "archive",
        d / "w.sqlite",
        LIVE_SEGMENT, d / "ready"], work.log, pipes=True)
    try:
        server, port = start_server(d / "w.sqlite", d / "server.json",
                                    trace, work.log, after=d / "ready")
    except ProcessFailed:
        writer.popen.kill()
        writer.wait(10)
        raise
    writer.readline(120)
    client = Client(port)
    try:
        ok, _body, _done = client.fetch(Request("/api/v1/health", "t000"))
    finally:
        client.close()
    out.op(ok, "live server not healthy")
    setup = time.monotonic() - min(writer.spawned, server.spawned)
    return writer, server, port, setup, d


def _live_requests(rng: random.Random, n: int) -> list[Request]:
    """Mostly ``live/top`` polls from four operator consoles, plus the
    panels of a support dashboard.  The mix is an assumption; no
    operator traffic has been measured (see README)."""
    panels = [f"/api/v1/report/support?system={SYSTEM}",
              f"/api/v1/query/group_by?system={SYSTEM}&dimension=app",
              f"/api/v1/query/group_by?system={SYSTEM}&dimension=user"]
    out = []
    for _ in range(n):
        tenant = f"op{rng.randrange(4)}"
        path = (f"/api/v1/live/top?system={SYSTEM}&n=5"
                if rng.random() < 0.8 else rng.choice(panels))
        out.append(Request(path, tenant))
    return out


def _live_run(out: Outcome, writer: Proc, server: Proc, port: int,
              seed: int) -> dict | None:
    """Stream every batch while reading and watching; returns the
    writer's batches, the watch returns and the stream's seconds, or
    ``None`` (counted as failed) when the writer recorded no batches."""
    rng = random.Random(seed)
    requests = _live_requests(rng, READ_REQUESTS)
    offsets = loadgen.even_offsets(LIVE_READ_RATE, READ_REQUESTS)
    watcher, reader = Client(port), Client(port)
    finished = threading.Event()
    # The watch thread keeps its own tallies; they join the Outcome
    # after the thread has ended.
    watches: list[tuple[float, float]] = []
    watch_failures = [0]

    def watch():
        since = None
        while not finished.is_set():
            path = f"/api/v1/live/watch?system={SYSTEM}&timeout=1"
            if since is not None:
                path += f"&since={since!r}"
            ok, body, done = watcher.fetch(Request(path, "watch"))
            if ok and isinstance(body.get("t"), (int, float)):
                watches.append((done, body["t"]))
                since = body["t"]
            else:
                watch_failures[0] += 1

    thread = threading.Thread(target=watch)
    thread.start()
    try:
        writer.send("go")
        # Reports over a system with no jobs yet are refused (400), so
        # the dashboard opens once the first jobs are loaded.
        writer.readline(120)
        read_wave(out, [reader], requests, offsets)
        out.op(writer.wait(170) == 0, "live writer failed")
    finally:
        finished.set()
        thread.join()
        for _ in watches:
            out.op(True)
        for _ in range(watch_failures[0]):
            out.op(False, "live/watch failed")
        watcher.close()
        reader.close()
        out.op(server.stop() == 0, "server failed")
        if writer.popen.returncode is None:
            writer.popen.kill()
            writer.wait(10)
    res = writer.outcome()
    batches = res.get("batches")
    if not out.op(bool(batches), "the live writer recorded no batches"):
        return None
    deferred = res.get("jobs_deferred")
    out.op(deferred == 0, f"{deferred} jobs still deferred")
    out.op(res.get("jobs_total", 0) > 0, "live run loaded no jobs")
    return {"batches": batches, "watches": watches,
            "run_s": batches[-1][1] - batches[0][0]}


def live_serve(out: Outcome, seed: int, seconds: int, trace: bool) -> None:
    """A live writer streams every micro-batch into the served
    warehouse while one connection long-polls ``live/watch`` and the
    other sends open-loop ``live/top`` polls and dashboard panels.  The
    stream is fixed work, so *seconds* does not apply."""
    work = Work(f"live_serve-{seed}")
    try:
        setups = []
        for k in range(SETUPS - 1):
            writer, server, _port, setup, _d = _live_pair(
                out, work, f"setup{k}", False)
            setups.append(setup)
            writer.popen.stdin.close()  # no "go": the writer exits
            writer.wait(30)
            out.op(server.stop() == 0, "server failed")
        writer, server, port, setup, d = _live_pair(out, work, "main",
                                                    False)
        setups.append(setup)
        run = _live_run(out, writer, server, port, seed)
        if run is None:
            return
        batches = run["batches"]
        out.put("setup_s", stats.median(setups), len(setups))
        out.put("run_s", run["run_s"], len(batches))
        out.put("peak_rss_mb", writer.peak_rss_mb + server.peak_rss_mb)

        batch_ms = [1e3 * (b[1] - b[0]) for b in batches]
        out.put_layer("live.batch_p50_ms", stats.median(batch_ms),
                      len(batch_ms))
        out.put_layer("live.batch_p90_ms", stats.tail(batch_ms, 90.0),
                      len(batch_ms))
        fresh_ms = [1e3 * f for f in
                    loadgen.join_freshness(batches, run["watches"])]
        if out.op(len(fresh_ms) >= stats.samples_needed(90.0),
                  f"only {len(fresh_ms)} freshness samples"):
            out.put_layer("live.freshness_p50_ms", stats.median(fresh_ms),
                          len(fresh_ms))
            out.put_layer("live.freshness_p90_ms",
                          stats.tail(fresh_ms, 90.0), len(fresh_ms))
        stored = tree_bytes(d / "archive")
        out.put_layer("archive.bytes_stored", stored)
        out.put_layer("archive.stored_bytes_per_node_day",
                      stored / (LIVE_NODES * LIVE_DAYS))

        if trace:
            measured = dict(out.layer)
            writer, server, port, _setup, _d = _live_pair(
                out, work, "traced", True)
            traced = _live_run(out, writer, server, port, seed)
            if traced is None:
                return
            out.layer = {**measured, **layers.derive(
                [writer.outcome(), server.outcome()])}
            out.put_layer("trace.overhead_frac",
                          traced["run_s"] / run["run_s"])
    finally:
        work.close()


WORKLOADS = {
    "nightly_v2": lambda out, seed, seconds, trace: nightly(
        out, "v2", seed, seconds, trace),
    "nightly_text": lambda out, seed, seconds, trace: nightly(
        out, "text", seed, seconds, trace),
    "serve_read": serve_read,
    "live_serve": live_serve,
}
