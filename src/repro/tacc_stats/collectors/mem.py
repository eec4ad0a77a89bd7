"""``mem`` collector: per-socket memory gauges (as from
``/sys/devices/system/node/node*/meminfo``), in KB.

``MemUsed`` includes buffers and page cache — the paper's ``mem_used``
metric is defined to include "the disk buffer and cache managed by the
Linux operating system" (§4.2).
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.util.units import GB, KB

__all__ = ["MemCollector"]

#: Kernel + daemons resident on an idle node, GB.
_BASE_OS_GB = 1.2


class MemCollector(Collector):
    """Per-socket MemTotal/MemUsed/MemFree/Buffers/Cached/Active/Dirty."""

    @property
    def type_name(self) -> str:
        return "mem"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "mem",
            tuple(
                SchemaEntry(k, is_event=False, unit="KB")
                for k in ("MemTotal", "MemUsed", "MemFree", "Buffers",
                          "Cached", "Active", "Dirty")
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.node.hardware.sockets))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        hw = self.node.hardware
        sockets = hw.sockets
        total_kb_per_socket = hw.memory_bytes / sockets / KB

        used_gb = np.minimum(
            block.rate("mem_used_gb", 0.0) + _BASE_OS_GB,
            hw.memory_gb * 0.995)
        cache_gb = np.minimum(block.rate("mem_cache_gb", 0.3), used_gb * 0.95)

        # Socket 0 carries the kernel and most of the cache; remaining
        # sockets split the rest evenly (first-touch NUMA placement).
        weights = np.full(sockets, 1.0)
        weights[0] = 1.35
        weights /= weights.sum()
        used_kb = np.minimum(
            (used_gb * GB / KB)[:, None] * weights[None, :],
            total_kb_per_socket * 0.999)
        cached_kb = np.minimum(
            (cache_gb * GB / KB)[:, None] * weights[None, :],
            used_kb * 0.95)
        vals = np.empty((block.n, sockets, self._schema.n_values))
        vals[..., 0] = total_kb_per_socket
        vals[..., 1] = used_kb
        vals[..., 2] = total_kb_per_socket - used_kb
        vals[..., 3] = cached_kb * 0.12
        vals[..., 4] = cached_kb * 0.88
        vals[..., 5] = used_kb * 0.6
        vals[..., 6] = cached_kb * 0.02
        if block.n:
            self._store_carry(vals[-1])
        return self.wrap_block(vals)
