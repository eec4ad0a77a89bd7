"""Archive files land atomically: a writer killed at any file close
leaves no torn or temporary file, and a re-run converges to the tree an
uninterrupted run writes."""

import pytest

from repro import Facility
from repro.tacc_stats.archive import HostArchive, is_temp_name
from repro.testing.faults import InjectedKill, kill_at_file_close
from tests import write_path_golden as golden

CFG = golden.files_config("ranger")
SEED = 5


def _replay(root, archive_format):
    Facility(CFG, seed=SEED).run_with_files(
        str(root), archive_format=archive_format)


@pytest.fixture(scope="module", params=["text", "v2"])
def reference(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"uninterrupted-{request.param}")
    _replay(root, request.param)
    return request.param, golden.tree(root)


def test_every_kill_point_leaves_whole_files_and_reruns_clean(
        tmp_path, reference):
    archive_format, full = reference
    assert len(full) == 4  # 2 hosts x 2 day files
    for n in range(1, len(full) + 1):
        root = tmp_path / f"kill-{n}"
        with kill_at_file_close(n), pytest.raises(InjectedKill):
            _replay(root, archive_format)
        assert not [p for p in root.rglob("*") if is_temp_name(p.name)]
        partial = golden.tree(root)
        # The first n - 1 closes completed; the n-th left nothing.
        assert len(partial) == n - 1
        assert all(full[name] == digest
                   for name, digest in partial.items())
        _replay(root, archive_format)
        assert golden.tree(root) == full


def test_leftover_temp_file_is_never_read_as_a_host_day(tmp_path):
    """A writer killed outright (no cleanup) leaves its temporary file;
    readers skip it and the next write replaces the day."""
    _replay(tmp_path, "text")
    archive = HostArchive(tmp_path)
    host = archive.hostnames()[0]
    files = archive.host_files(host)
    (files[0].parent / f".{files[0].name}.tmp").write_text("torn")
    assert archive.host_files(host) == files
    assert archive.read_host(host).hostname == host


def test_kill_point_must_be_positive():
    with pytest.raises(ValueError):
        with kill_at_file_close(0):
            pass
