"""``numa`` collector: per-socket NUMA allocation statistics (as from
``/sys/devices/system/node/node*/numastat``), cumulative page counts."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["NumaCollector"]

_PAGE_KB = 4.0
#: Fraction of memory traffic that misses the local node for a typical
#: first-touch-placed MPI code.
_MISS_FRAC = 0.06


class NumaCollector(Collector):
    """numa_hit / numa_miss / numa_foreign / local_node / other_node."""

    @property
    def type_name(self) -> str:
        return "numa"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "numa",
            tuple(
                SchemaEntry(k, is_event=True)
                for k in ("numa_hit", "numa_miss", "numa_foreign",
                          "local_node", "other_node")
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.node.hardware.sockets))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        # Page allocation rate scales with memory churn: approximate from
        # cache turnover + I/O (every I/O byte passes the page cache).
        io_mb = (
            block.rate("io_scratch_write_mb") + block.rate("io_scratch_read_mb")
            + block.rate("io_work_write_mb") + block.rate("io_work_read_mb")
            + block.rate("block_mb")
        )
        churn_mb = io_mb + 0.05 * block.rate("mem_used_gb") * 1024 / 600.0 + 0.01
        pages_per_s = churn_mb * 1024.0 / _PAGE_KB
        sockets = self.node.hardware.sockets
        # One draw per sample, shared by every socket.
        per_socket = self.noisy_block(pages_per_s * block.dts) / sockets
        miss = per_socket * _MISS_FRAC
        hit = per_socket - miss
        inc = np.empty((block.n, sockets, self._schema.n_values))
        inc[..., 0] = hit[:, None]
        inc[..., 1] = miss[:, None]
        inc[..., 2] = miss[:, None]
        inc[..., 3] = hit[:, None]
        inc[..., 4] = miss[:, None]
        return self.wrap_block(self.accumulate_block(inc))
