"""TACC_Stats reproduction: job-aware, per-node resource measurement.

The collector suite mirrors the original tool (paper §3): one per-node
process (:class:`NodeSynth`) is invoked at job begin, every ten
minutes, and at job end; it samples per-core CPU, per-socket memory and
NUMA, VM activity, network/block devices, InfiniBand, Lustre (per mount),
Lustre networking, process stats, SysV IPC, IRQs, ram-backed filesystems,
dentry/file/inode caches, and architecture-specific hardware performance
counters, and serializes everything in a unified, self-describing
plain-text format tagged with batch job ids.
"""

from repro.tacc_stats.archive import ArchiveStats, HostArchive
from repro.tacc_stats.format import StatsWriter
from repro.tacc_stats.parser import ParseError, parse_host_text
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.tacc_stats.synth import NodeSynth
from repro.tacc_stats.types import HostData, Mark, TimestampBlock

__all__ = [
    "SchemaEntry",
    "TypeSchema",
    "HostData",
    "TimestampBlock",
    "Mark",
    "StatsWriter",
    "parse_host_text",
    "ParseError",
    "NodeSynth",
    "HostArchive",
    "ArchiveStats",
]
