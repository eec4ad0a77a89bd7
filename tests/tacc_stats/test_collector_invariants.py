"""Invariants the collector kernels must keep for any input.

* The ``cpu`` kernel spreads node-level fractions over cores so that,
  sample by sample, the per-core columns sum back to the requested
  user, system and iowait fractions.
* Every event counter is monotone modulo its register width: across
  synthesis blocks, rotation cuts and job boundaries, the only step a
  counter may take backwards is the PMC reset at job begin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hardware import lonestar4_node, ranger_node
from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.collectors import CpuCollector
from repro.tacc_stats.collectors.base import BlockContext
from repro.util.timeutil import HOUR
from repro.workload.applications import RATE_FIELDS, RATE_INDEX
from tests import write_path_golden as golden

#: Share of each core's time the kernel books as irq + softirq; a core
#: the job fills completely is scaled down by at most this much.
_IRQ_SHARE = 1.5 * 0.0003

_fraction = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _cpu_rows(draw):
    """Per-sample (user, system, iowait) fractions of one node, with
    user + system + iowait <= 1."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        u, s, w = draw(_fraction), draw(_fraction), draw(_fraction)
        total = u + s + w
        if total > 1.0:
            u, s, w = u / total, s / total, w / total
        rows.append((u, s, w))
    return rows


@given(rows=_cpu_rows(),
       dt=st.floats(min_value=600.0, max_value=3600.0),
       intel=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cpu_columns_sum_to_requested_fractions(rows, dt, intel):
    """Sample by sample, summing each cpu column over the cores gives
    the node-level fraction asked for: system time spreads over every
    core, user fills cores from the bottom and iowait from the top
    without oversubscribing any core (a fully busy core loses only the
    irq share), and each core accounts exactly its elapsed time."""
    hw = lonestar4_node() if intel else ranger_node()
    col = CpuCollector(Node(index=0, hostname="c000-000.t", hardware=hw),
                       np.random.default_rng(0))
    col.NOISE_SIGMA = 0.0  # measurement jitter off: exact bookkeeping
    n = len(rows)
    rates = np.zeros((n, len(RATE_FIELDS)))
    for i, (u, s, w) in enumerate(rows):
        rates[i, RATE_INDEX["cpu_user_frac"]] = u
        rates[i, RATE_INDEX["cpu_sys_frac"]] = s
        rates[i, RATE_INDEX["cpu_iowait_frac"]] = w
    vals = col.sample_block(BlockContext(
        times=dt * np.arange(1, n + 1), dts=np.full(n, dt), rates=rates,
        idle=np.zeros(n, dtype=bool))).astype(np.int64)
    # Per-sample increments of the cumulative centisecond counters; the
    # integer rendering is off by under one centisecond per value.
    inc = np.diff(vals, axis=0, prepend=np.zeros_like(vals[:1]))
    dt_cs = dt * 100.0
    for i, (u, s, w) in enumerate(rows):
        sums = inc[i].sum(axis=0) / (hw.cores * dt_cs)
        for key, want in (("user", u), ("system", s), ("iowait", w)):
            got = sums[col.schema.index_of(key)]
            assert abs(got - want) <= _IRQ_SHARE * want + 2e-5, (key, got)
        assert np.abs(inc[i].sum(axis=1) - dt_cs).max() < 7


def _event_steps(host):
    """Yield (type, device, key, width, previous, current, begins_here)
    for every consecutive pair of samples of every event counter."""
    begins = {m.time for m in host.marks if m.kind == "begin"}
    for type_name, schema in host.schemas.items():
        events = [(k, e) for k, e in enumerate(schema.entries) if e.is_event]
        devices = sorted({dev for b in host.blocks
                          for dev in b.rows.get(type_name, {})})
        for dev in devices:
            rows = [(b.time, b.get(type_name, dev)) for b in host.blocks]
            for (_t0, a), (t1, b) in zip(rows, rows[1:]):
                for k, entry in events:
                    yield (type_name, dev, entry.key, entry.width,
                           int(a[k]), int(b[k]), t1 in begins)


@pytest.mark.parametrize("name", sorted(golden.ARCHETYPES))
def test_event_counters_monotone_modulo_width(tmp_path, name):
    """Replayed with 3 h rotation and micro-batch cuts that fall inside
    segments and at odd instants, every node's event counters only step
    forward (mod 2**width); PMC counters may only drop to zero at a job
    begin, where the counters are reprogrammed."""
    cfg = golden.files_config(name)
    golden.replay_in_batches(
        tmp_path, cfg, 47, "text", 3 * HOUR,
        [5000.0, 20000.0, 20001.0, 50000.0, cfg.horizon])
    archive = HostArchive(tmp_path)
    resets = steps = 0
    for hostname in archive.hostnames():
        host = archive.read_host(hostname)
        for type_name, dev, key, width, a, b, begin in _event_steps(host):
            steps += 1
            forward = (b - a) % (1 << width)
            if type_name.endswith("_pmc") and begin and b == 0:
                resets += 1
                continue
            assert forward < 1 << (width - 1), (
                hostname, type_name, dev, key, a, b)
    assert steps > 10_000
    assert resets > 0
