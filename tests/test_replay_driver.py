"""The one replay driver, :class:`repro.live.runner.LiveReplay`.

The offline slow path and live mode both replay through it, so the
edge cases the two used to handle separately are pinned here once.
"""

import pytest

from repro import Facility
from repro.live.runner import LiveReplay
from repro.tacc_stats.archive import HostArchive
from repro.util.timeutil import DAY
from tests import write_path_golden as golden

#: Stampede, 2 nodes x 1 day, seed 47: a job is granted node 1 at the
#: horizon itself, so the horizon truncates it to zero duration.
ZERO_CFG = golden.files_config("stampede")
ZERO_SEED = 47


@pytest.fixture(scope="module")
def zero_job():
    _workload, sim, _outages, _cluster = Facility(
        ZERO_CFG, seed=ZERO_SEED)._simulate()
    zero = [r for r in sim.records if r.end_time == r.start_time]
    assert [(r.start_time, r.node_indices) for r in zero] == \
        [(ZERO_CFG.horizon, (1,))]
    return zero[0]


@pytest.mark.parametrize("archive_format", ["text", "v2"])
@pytest.mark.parametrize("cuts", [
    pytest.param((1.0,), id="one-advance"),
    pytest.param((1.0 - 1 / DAY, 1.0), id="split-before"),
    pytest.param((1.0, 1.0), id="split-at"),
])
def test_zero_duration_job_at_horizon(tmp_path, zero_job, archive_format,
                                      cuts):
    """Regression: a zero-duration allocation's end sorts before its
    begin under the same-instant order, which used to crash the replay.
    Replayed in one advance, or split just before or at that instant,
    it writes the pinned archive with its begin and end marks both at
    the horizon."""
    horizon = ZERO_CFG.horizon
    golden.replay_in_batches(tmp_path, ZERO_CFG, ZERO_SEED, archive_format,
                             DAY, [c * horizon for c in cuts])
    pinned = golden.load_golden()[golden.files_key(
        "stampede", archive_format, "strict", ZERO_SEED)]
    assert golden.tree_digest(tmp_path)["archive"] == pinned["archive"]
    host = HostArchive(tmp_path).read_host("c000-001.stampede")
    assert host.job_window(zero_job.jobid) == (horizon, horizon)


def test_replay_builds_behaviours_only_for_its_nodes(tmp_path, zero_job):
    """A node chunk's replay rebuilds only the jobs on its nodes, as a
    pool worker needs."""
    fac = Facility(ZERO_CFG, seed=ZERO_SEED)
    workload, sim, _outages, _cluster = fac._simulate()

    def jobs_on(nodes):
        return {r.jobid for r in sim.records
                if set(r.node_indices) & set(nodes)}

    for nodes in ([0], [1], [0, 1]):
        replay = LiveReplay(
            ZERO_CFG, ZERO_SEED, workload.users, workload.util_scale,
            fac.phase_calibration, fac.regressions, sim.records,
            HostArchive(tmp_path), nodes=nodes)
        assert set(replay.behaviors) == jobs_on(nodes)
    assert zero_job.jobid in jobs_on([1]) - jobs_on([0])


def test_advance_cannot_move_backwards(tmp_path):
    fac = Facility(ZERO_CFG, seed=ZERO_SEED)
    workload, sim, _outages, _cluster = fac._simulate()
    replay = LiveReplay(
        ZERO_CFG, ZERO_SEED, workload.users, workload.util_scale,
        fac.phase_calibration, fac.regressions, sim.records,
        HostArchive(tmp_path))
    replay.advance(7200.0)
    with pytest.raises(ValueError, match="backwards"):
        replay.advance(3600.0)
