"""Determinism contract for the vectorized synthesis engine.

The replay (:class:`repro.tacc_stats.synth.NodeSynth` driven by
:class:`repro.live.runner.LiveReplay`) must still write what the scalar
daemon oracle wrote, pinned as golden digests before that daemon was
removed: byte-identical archives in both on-disk formats, and output
that depends only on ``(seed, node, collector)`` — never on how nodes
are chunked across workers, because every collector draws from its own
keyed RNG stream.  Also pins the worker-chunking clamp: requesting more
workers than nodes degrades to one worker per node, never an empty pool
task.
"""

import pytest

from repro import Facility
from repro.facility import _node_chunks, _replay_nodes
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests import write_path_golden as golden
from tests.write_path_golden import tree as _tree

CFG = golden.synth_config()
SEED = golden.SYNTH_SEED


# ---------------------------------------------------------------------------
# Worker chunking.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes,workers", [
    (4, 16), (1, 8), (3, 3), (5, 2), (16, 5), (2, 1),
])
def test_node_chunks_never_empty_and_cover_all(nodes, workers):
    chunks = _node_chunks(nodes, workers)
    assert all(chunks), "no chunk may be empty"
    assert len(chunks) == min(workers, nodes)
    assert sorted(i for c in chunks for i in c) == list(range(nodes))


def test_workers_beyond_node_count(tmp_path):
    """Regression: more workers than nodes used to produce empty strided
    chunks — pool tasks that opened an archive handle only to write
    nothing.  The clamp sizes the pool to the node count, with output
    byte-identical to the serial replay."""
    d1, d2 = str(tmp_path / "serial"), str(tmp_path / "wide")
    Facility(CFG, seed=SEED).run_with_files(d1, compress=False)
    Facility(CFG, seed=SEED).run_with_files(d2, compress=False, workers=12)
    assert _tree(d1) == _tree(d2)


# ---------------------------------------------------------------------------
# Engine == pinned scalar oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("archive_format", ["text", "v2"])
def test_fast_matches_scalar(tmp_path, archive_format):
    """Archive tree, volume accounting and warehouse rows equal the
    scalar daemon's, as pinned for this facility."""
    got = golden.run_files(tmp_path, CFG, SEED, archive_format)
    assert got == golden.load_golden()[golden.synth_key(archive_format)]


# ---------------------------------------------------------------------------
# Stream keying: (seed, node, collector) fully determines a node's bytes.
# ---------------------------------------------------------------------------


def test_node_output_depends_only_on_seed_and_node(tmp_path):
    """Replaying a node subset alone reproduces the exact bytes those
    nodes got in the full-fleet replay — the stream-keying contract that
    makes *any* worker decomposition byte-identical."""
    fac = Facility(CFG, seed=SEED)
    workload, sim, _outages, _cluster = fac._simulate()
    args = (CFG, SEED, workload.users, workload.util_scale,
            fac.phase_calibration, fac.regressions, sim.records)
    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    _replay_nodes(*args, list(range(CFG.num_nodes)), full, False)
    _replay_nodes(*args, [1, 3], part, False)
    full_tree, part_tree = _tree(full), _tree(part)
    assert part_tree, "subset replay wrote no files"
    for name, digest in part_tree.items():
        assert full_tree[name] == digest, name


# ---------------------------------------------------------------------------
# Telemetry.
# ---------------------------------------------------------------------------


def test_synth_telemetry_counters(tmp_path):
    reg = MetricsRegistry()
    with use_registry(reg):
        Facility(CFG, seed=SEED).run_with_files(str(tmp_path / "a"),
                                                compress=False)
    counters = reg.snapshot().counters
    assert counters["synth.nodes"] == CFG.num_nodes
    # At least one flushed block per node, each holding >= 1 sample.
    assert counters["synth.chunks"] >= CFG.num_nodes
    assert counters["synth.samples"] >= counters["synth.chunks"]
    assert counters["synth.rows"] > counters["synth.samples"]
