"""Tests for the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import time

import pytest

from perfbench import loadgen, stats
from perfbench.tracing import Recorder, self_times


# -- percentile rule ----------------------------------------------------------

def test_samples_needed_leaves_ten_beyond():
    assert stats.samples_needed(50.0) == 20
    assert stats.samples_needed(90.0) == 100
    assert stats.samples_needed(99.0) == 1000
    assert stats.samples_needed(99.9) == 10000


def test_tail_percentile_is_highest_supported():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10 ** 6) == 99.0  # highest reported


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError, match="p99 needs 1000 samples, got 999"):
        stats.tail(list(range(999)), 99.0)
    assert stats.tail(list(range(1001)), 99.0) == pytest.approx(990.0)


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50.0) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 90.0) == pytest.approx(4.6)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [  # name, start, end, id, parent
        ("root", 0.0, 10.0, 1, 0),
        ("a", 1.0, 4.0, 2, 1),
        ("leaf", 2.0, 3.0, 3, 2),
        ("b", 5.0, 7.0, 4, 1),
        ("b", 8.0, 12.0, 5, 1),  # outlives its parent: clipped at 10
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 3 - 2 - 2)
    assert got["a"] == pytest.approx(2.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["b"] == pytest.approx(2.0 + 4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, 1, 0),
             ("x", 1.0, 5.0, 2, 1),
             ("x", 3.0, 6.0, 3, 1)]  # from another thread
    assert self_times(spans)["root"] == pytest.approx(5.0)


def test_recorder_nests_calls_and_generator_steps():
    rec = Recorder()

    def leaf():
        time.sleep(0.01)

    leaf = rec.wrap("leaf", leaf)

    def produce():
        for _ in range(2):
            leaf()
            yield 1

    produce = rec.wrap("gen", produce)

    def outer():
        total = 0
        for item in produce():
            time.sleep(0.02)  # consumer time: charged to outer
            total += item
        return total

    outer = rec.wrap("outer", outer, on_call=lambda r, a, res:
                     r.count("items", res))
    assert outer() == 2
    by_id = {s[3]: s for s in rec.spans}
    names = sorted(s[0] for s in rec.spans)
    assert names == ["gen", "gen", "gen", "leaf", "leaf", "outer"]
    for name, _start, _end, _sid, parent in rec.spans:
        expected = {"outer": None, "gen": "outer", "leaf": "gen"}[name]
        assert (by_id[parent][0] if parent else None) == expected
    selfs = self_times(rec.spans)
    assert selfs["outer"] >= 0.04
    assert selfs["gen"] < 0.01
    assert rec.counts["items"] == 2


# -- freshness join -----------------------------------------------------------

def test_freshness_joins_each_batch_to_first_watch_seeing_it():
    batches = [  # start, end, t_end, high water after the batch
        (100.0, 100.2, 3000.0, 3000.0),
        (100.2, 100.5, 6000.0, 6000.0),
        (100.5, 100.6, 9000.0, 6000.0),  # nothing new: no sample
        (100.6, 100.9, 12000.0, 12000.0),
    ]
    watches = [  # returned at, t seen
        (100.25, 3000.0),
        (100.95, 12000.0),  # one return covers the last two batches
    ]
    got = loadgen.join_freshness(batches, watches)
    assert got == pytest.approx([0.25, 0.75, 0.35])


def test_freshness_stops_at_unseen_batches():
    batches = [(0.0, 1.0, 10.0, 10.0), (1.0, 2.0, 20.0, 20.0)]
    assert loadgen.join_freshness(batches, [(1.5, 10.0)]) == [1.5]


# -- open loop ----------------------------------------------------------------

def test_due_time_latency_charges_a_stall_to_queued_requests():
    stall = 0.3

    def send(worker, i):
        time.sleep(stall if i == 0 else 0.001)
        return True, None, time.monotonic()

    offsets = [0.0, 0.05, 0.10, 0.15]
    samples = loadgen.open_loop(offsets, send, workers=1)
    lat = [s.latency for s in samples]
    # Request i waited behind the stall from its due time on.
    for i, off in enumerate(offsets[1:], start=1):
        assert lat[i] >= stall - off
    # ...and each was sent as soon as the connection freed: the wait
    # is the server's, not the generator's.
    assert max(s.late for s in samples) < 0.05
    assert samples[1].sent >= samples[0].done


def test_closed_loop_runs_every_request_once():
    seen = []

    def send(worker, i):
        seen.append(i)
        return True, None, time.monotonic()

    elapsed, samples = loadgen.closed_loop(50, send, workers=2)
    assert sorted(seen) == list(range(50))
    assert elapsed > 0 and all(s.ok for s in samples)


def test_zipf_mix_is_seeded_and_follows_the_ranking():
    import random

    ranked = [f"/h{i}" for i in range(5)] + [f"/t{i}" for i in range(500)]
    a = loadgen.zipf_mix(random.Random(7), ranked, 4000, tenants=128)
    b = loadgen.zipf_mix(random.Random(7), ranked, 4000, tenants=128)
    assert a == b
    weights = [1.0 / r ** loadgen.ZIPF_EXPONENT for r in range(1, 506)]
    expected = sum(weights[:5]) / sum(weights)
    share = sum(r.path.startswith("/h") for r in a) / len(a)
    assert abs(share - expected) < 0.03
    assert len({r.tenant for r in a}) > 64
