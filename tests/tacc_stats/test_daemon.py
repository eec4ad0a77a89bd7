"""Tests for the per-node TACC_Stats process's invocation discipline:
:class:`NodeSynth` writing through a :class:`HostArchive`."""

import numpy as np
import pytest

from repro.cluster.hardware import ranger_node
from repro.cluster.node import Node
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.parser import parse_host_text
from repro.tacc_stats.synth import NodeSynth
from repro.util.rng import RngFactory
from repro.workload.applications import get_app
from repro.workload.behavior import JobBehavior
from repro.workload.users import generate_users


class Written:
    """Reads back what the engine wrote: flushes its queued samples,
    closes the archive, and parses the host's files."""

    def __init__(self, daemon: NodeSynth, archive: HostArchive):
        self.daemon = daemon
        self.archive = archive

    def host(self):
        self.daemon.flush()
        self.archive.close()
        return self.archive.read_host(self.daemon.node.hostname)


@pytest.fixture
def setup(tmp_path):
    node = Node(index=0, hostname="c000-000.test", hardware=ranger_node())
    archive = HostArchive(tmp_path, compress=False)
    daemon = NodeSynth(node, RngFactory(0).stream("noise"), archive)
    users = generate_users(5, RngFactory(0).stream("u"))
    behavior = JobBehavior(get_app("namd"), users[0], ranger_node(), 2,
                           duration=3000.0, sample_interval=600.0,
                           behavior_seed=5)
    return node, Written(daemon, archive), daemon, behavior


def test_job_lifecycle_produces_marks_and_tags(setup):
    _, written, daemon, behavior = setup
    daemon.sample(0.0)
    daemon.begin_job("7", 600.0, behavior, 0)
    for t in (1200.0, 1800.0, 2400.0, 3000.0):
        daemon.sample(t)
    daemon.end_job("7", 3600.0)
    daemon.sample(4200.0)
    host = written.host()
    assert host.job_window("7") == (600.0, 3600.0)
    tagged = host.blocks_for_job("7")
    assert [b.time for b in tagged] == [600.0, 1200.0, 1800.0, 2400.0,
                                        3000.0, 3600.0]
    # Pre/post samples are idle-tagged.
    assert host.blocks[0].jobids == ()
    assert host.blocks[-1].jobids == ()


def test_counters_keep_running_across_jobs(setup):
    _, written, daemon, behavior = setup
    daemon.sample(0.0)
    daemon.begin_job("7", 600.0, behavior, 0)
    daemon.end_job("7", 1200.0)
    daemon.sample(1800.0)
    host = written.host()
    _, user = host.series("cpu", "0", "user")
    # cpu counters are monotone across the job boundary (no reset).
    assert (np.diff(user.astype(np.int64)) >= 0).all()


def test_pmc_reset_at_job_begin(setup):
    _, written, daemon, behavior = setup
    daemon.sample(0.0)
    daemon.begin_job("7", 600.0, behavior, 0)
    daemon.sample(1200.0)
    daemon.end_job("7", 1800.0)
    daemon.begin_job("8", 2400.0, behavior, 0)
    host = written.host()
    t, ctr = host.series("amd64_pmc", "0", "ctr0")
    # The begin-sample of job 8 reads a freshly reset counter.
    assert int(ctr[list(t).index(2400.0)]) == 0


def test_double_begin_rejected(setup):
    _, _, daemon, behavior = setup
    daemon.begin_job("7", 600.0, behavior, 0)
    with pytest.raises(RuntimeError, match="still active"):
        daemon.begin_job("8", 700.0, behavior, 0)


def test_end_wrong_job_rejected(setup):
    _, _, daemon, behavior = setup
    daemon.begin_job("7", 600.0, behavior, 0)
    with pytest.raises(RuntimeError):
        daemon.end_job("9", 700.0)


def test_time_cannot_go_backwards(setup):
    _, _, daemon, _ = setup
    daemon.sample(600.0)
    with pytest.raises(ValueError, match="backwards"):
        daemon.sample(500.0)


def test_begin_sample_accounts_preceding_idle_interval(setup):
    """The baseline sample at job begin covers the idle interval before
    it, so its cpu row is ~all idle even though it is tagged with the job."""
    _, written, daemon, behavior = setup
    daemon.sample(0.0)
    daemon.begin_job("7", 600.0, behavior, 0)
    host = written.host()
    begin_block = host.blocks_for_job("7")[0]
    vals = begin_block.get("cpu", "0")
    schema = host.schemas["cpu"]
    idle = int(vals[schema.index_of("idle")])
    user = int(vals[schema.index_of("user")])
    assert idle > 50 * user


def test_writer_factory_gets_schemas_registered(setup):
    """Every file the archive's rotating writer provider hands out
    starts with the schema header (the real tool re-registers on its
    daily restart)."""
    node, written, daemon, _ = setup
    daemon.sample(0.0)
    daemon.sample(90000.0)  # next day -> new writer
    written.host()
    files = written.archive.host_files(node.hostname)
    assert len(files) == 2
    for path in files:
        assert "cpu" in parse_host_text(HostArchive.read_file(path)).schemas


def test_samples_counted(setup):
    _, _, daemon, _ = setup
    daemon.sample(0.0)
    daemon.sample(600.0)
    assert daemon.samples_taken == 2
    assert daemon.current_jobid is None
