"""Byte-identity of the replay against the pinned scalar-oracle digests.

The per-sample scalar daemon was the oracle the batched synthesis
kernels were proven against.  Before it was removed, its archives and
warehouses were recorded as golden digests over the grid these
properties used to sample (``tests/write_path_golden.py``), each entry
only where the batched engine matched it.  Every test here runs the
whole grid and compares the replay's output with those digests: the
system archetype (different collector suites, filesystems, PMC
programs), the on-disk format (text vs direct-to-v2 column encoding),
the ingest error policy (the fault-tolerant read-back paths), and
sub-day rotation periods (the live replay's segment close /
re-register cycle, which cuts synthesis blocks at arbitrary points).
"""

from tests import write_path_golden as golden


def _mismatches(got: dict) -> dict:
    """{key: digest fields that differ from the pinned entry}."""
    expected = golden.load_golden()
    return {key: sorted(f for f in expected[key]
                        if digest.get(f) != expected[key][f])
            for key, digest in got.items() if digest != expected[key]}


def test_fast_engine_matches_scalar_oracle(tmp_path):
    got = {
        golden.files_key(name, fmt, policy, seed): golden.run_files(
            tmp_path / str(i), golden.files_config(name), seed, fmt,
            policy)
        for i, (name, fmt, policy, seed) in enumerate(golden.files_grid())
    }
    assert _mismatches(got) == {}


def test_sub_day_rotation_identity(tmp_path):
    """Sub-day rotation: the live replay closes segments (firing the
    direct-to-v2 encoder) after every micro-batch, so the engine's
    blocks are cut and flushed at points a one-shot replay never sees —
    the archives must still match the scalar daemon's byte for byte."""
    got = {
        golden.rotation_key(hours, batch, fmt): golden.run_rotation(
            tmp_path / str(i), hours, batch, fmt)
        for i, (hours, batch, fmt) in enumerate(golden.rotation_grid())
    }
    assert _mismatches(got) == {}


def test_live_session_fast_matches_scalar(tmp_path):
    """The full live session (micro-batch ingest included) pinned on one
    representative cadence — the end-to-end path operators actually run."""
    assert _mismatches({golden.LIVE_KEY: golden.run_live(tmp_path)}) == {}
