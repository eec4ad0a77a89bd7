"""Load generation against ``repro-serve``: request mixes, open-loop
and closed-loop senders, and the freshness join for live runs.

The client never exceeds two threads and two keep-alive connections.
In the open loop every request has a due time fixed in advance; its
latency is measured from that due time, so a stalled server charges
the wait to every request queued behind the stall.  How late the
generator itself sent (after its due time and after a connection
became free) is reported separately, to show the numbers are valid.
"""

from __future__ import annotations

import http.client
import json
import random
import sqlite3
import threading
import time
from dataclasses import dataclass
from urllib.parse import quote

SYSTEM = "ranger"

#: Reports every stakeholder dashboard opens; they take no target.
FIXED_REPORTS = ("support", "funding")
#: Fixed reports built on the stored system series, which only a
#: warehouse loaded without an archive holds.
SERIES_REPORTS = ("admin", "manager")


@dataclass(frozen=True)
class Request:
    path: str
    tenant: str
    report: tuple | None = None  # (kind, target) for report requests


@dataclass
class Sample:
    """One request's timeline (``CLOCK_MONOTONIC`` seconds)."""

    due: float
    free: float  # when a connection became free for it
    sent: float
    done: float
    ok: bool
    body: object = None  # whatever ``send`` returned with the timing

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - max(self.due, self.free)


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int, timeout: float = 60.0):
        self._port = port
        self._timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def get(self, req: Request) -> tuple[int, bytes, float]:
        """``(status, raw body, time the response was read)``; status 0
        when the connection failed."""
        try:
            self._conn.request("GET", req.path,
                               headers={"X-Tenant": req.tenant})
            resp = self._conn.getresponse()
            raw = resp.read()
            return resp.status, raw, time.monotonic()
        except (OSError, http.client.HTTPException):
            done = time.monotonic()
            self.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout)
            return 0, b"", done

    def fetch(self, req: Request) -> tuple[bool, dict | None, float]:
        """:meth:`get`, parsed: ``(ok, body, time read)``."""
        status, raw, done = self.get(req)
        ok, body = parse(status, raw)
        return ok, body, done

    def close(self) -> None:
        self._conn.close()


def parse(status: int, raw: bytes) -> tuple[bool, dict | None]:
    """A well-formed response is a 200 whose body is a JSON object."""
    try:
        body = json.loads(raw)
    except ValueError:
        return False, None
    return status == 200 and isinstance(body, dict), body


def key_space(warehouse_path) -> tuple[list[Request], list[Request]]:
    """``(head, tail)`` request templates for *warehouse_path*.

    Head: the fixed reports, every stored timeseries and a group-by on
    each dimension with all metrics -- few keys that every dashboard
    opens, so they fit the caches.  Tail: a user report per user, a
    developer report per application and group-bys of metric pairs --
    drill-downs mostly seen for the first time.
    """
    con = sqlite3.connect(f"file:{warehouse_path}?mode=ro", uri=True)
    try:
        def column(sql):
            return [r[0] for r in con.execute(sql, (SYSTEM,))]
        # Drill-down reports need at least one job with a summary; a
        # user or application with none is refused (400).
        summarized = ("FROM jobs j WHERE j.system=? AND EXISTS (SELECT 1 "
                      "FROM job_metrics m WHERE m.system=j.system "
                      "AND m.jobid=j.jobid)")
        users = column(f"SELECT DISTINCT j.user {summarized} ORDER BY 1")
        apps = column(f"SELECT DISTINCT j.app {summarized} ORDER BY 1")
        series = column("SELECT DISTINCT metric FROM system_series "
                        "WHERE system=? ORDER BY metric")
        metrics = [r[0] for r in con.execute(
            "SELECT DISTINCT metric FROM job_metrics ORDER BY metric")]
    finally:
        con.close()
    dims = ("user", "account", "science_field", "app", "queue",
            "exit_status")
    fixed = FIXED_REPORTS + (SERIES_REPORTS if series else ())
    head = [_report(k, None) for k in fixed]
    head += [f"/api/v1/query/group_by?system={SYSTEM}&dimension={d}"
             for d in dims]
    head += [f"/api/v1/timeseries/{s}?system={SYSTEM}" for s in series]
    tail = [_report("user", u) for u in users]
    tail += [_report("developer", a) for a in apps]
    tail += [f"/api/v1/query/group_by?system={SYSTEM}&dimension={d}"
             f"&metrics={a},{b}"
             for d in dims for i, a in enumerate(metrics)
             for b in metrics[i + 1:]]
    return head, tail


def _report(kind: str, target: str | None):
    path = f"/api/v1/report/{kind}?system={SYSTEM}"
    if target is not None:
        path += f"&target={quote(target)}"
    return path, (kind, target)


#: Zipf exponent of key popularity.  No trace of dashboard traffic
#: against this kind of service is public; the nearest measured
#: popularity law is that of web requests, for which Breslau et al.
#: ("Web Caching and Zipf-like Distributions: Evidence and
#: Implications", IEEE INFOCOM 1999) found exponents from 0.64 to 0.83
#: across proxy traces.  0.75 is near the middle of that range.
ZIPF_EXPONENT = 0.75


def zipf_mix(rng: random.Random, ranked: list, n: int, tenants: int,
             exponent: float = ZIPF_EXPONENT) -> list[Request]:
    """*n* requests whose keys follow a Zipf law over *ranked* (most
    popular first), from *tenants* tenants chosen uniformly."""
    weights = [1.0 / (r + 1) ** exponent for r in range(len(ranked))]
    picks = rng.choices(ranked, weights=weights, k=n)
    return [request(p, f"t{rng.randrange(tenants):03d}") for p in picks]


def request(template, tenant: str) -> Request:
    """A :class:`Request` from a :func:`key_space` template."""
    if isinstance(template, tuple):
        return Request(template[0], tenant, template[1])
    return Request(template, tenant)


def even_offsets(rate: float, n: int) -> list[float]:
    """Due times (seconds from start) of *n* requests sent at a constant
    *rate*, as a fixed-throughput load generator sends them."""
    return [i / rate for i in range(1, n + 1)]


def open_loop(offsets: list[float], send, workers: int,
              clock=time.monotonic, sleep=time.sleep) -> list[Sample]:
    """Send request ``i`` at ``start + offsets[i]`` on the first free
    worker.  ``send(worker, i)`` returns ``(ok, body, done)``, *done*
    being when the response arrived."""
    n = len(offsets)
    samples: list[Sample | None] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def work(w: int) -> None:
        while True:
            free = clock()
            with lock:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] += 1
            due = start + offsets[i]
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            sent = clock()
            ok, body, done = send(w, i)
            samples[i] = Sample(due, free, sent, done, ok, body)

    _run_threads(work, workers)
    return samples


def closed_loop(n: int, send, workers: int,
                clock=time.monotonic) -> tuple[float, list[Sample]]:
    """Send *n* requests back to back on *workers* connections (an open
    loop whose requests are all due at once); returns the elapsed
    seconds and the samples."""
    start = clock()
    samples = open_loop([0.0] * n, send, workers, clock=clock)
    return clock() - start, samples


def _run_threads(work, workers: int) -> None:
    errors = []

    def guarded(w):
        try:
            work(w)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
    threads = [threading.Thread(target=guarded, args=(w,))
               for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def join_freshness(batches, watches) -> list[float]:
    """Seconds from each writer batch's start until the watcher first
    saw its data.

    *batches*: ``(start, end, t_end, high_water)`` per batch, in order,
    where ``high_water`` is the newest live sample time after the
    batch.  *watches*: ``(returned_at, t)`` per long-poll return, in
    order.  A batch that did not move the high-water mark has nothing
    to see and gives no sample.
    """
    out = []
    seen = 0.0
    j = 0
    for start, _end, _t_end, high_water in batches:
        if high_water <= seen:
            continue
        seen = high_water
        while j < len(watches) and (watches[j][1] < high_water
                                    or watches[j][0] < start):
            j += 1
        if j == len(watches):
            break
        out.append(watches[j][0] - start)
    return out
