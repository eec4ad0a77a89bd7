"""``sysv_shm`` collector: System V shared-memory segment usage (as from
``/proc/sysvipc/shm``).  MPI implementations of this era used SysV
segments for intra-node communication, so segment count tracks the number
of MPI ranks on the node."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.util.units import MB

__all__ = ["SysvShmCollector"]

_SEG_MB = 32.0  # typical per-rank shared segment


class SysvShmCollector(Collector):
    """used_count / used_bytes gauges for SysV shared memory."""

    @property
    def type_name(self) -> str:
        return "sysv_shm"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "sysv_shm",
            (
                SchemaEntry("used_count"),
                SchemaEntry("used_bytes", unit="B"),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        cores = self.node.hardware.cores
        # Ranks ~ busy cores; communication-heavy codes map more segments.
        ranks = np.maximum(1.0, np.round(block.rate("cpu_user_frac") * cores))
        segs = np.where(block.rate("net_mpi_mb") > 0.5, ranks, 1.0)
        segs = np.where(block.idle, 0.0, segs)
        vals = np.empty((block.n, 1, self._schema.n_values))
        vals[:, 0, 0] = segs
        vals[:, 0, 1] = segs * _SEG_MB * MB
        if block.n:
            self._store_carry(vals[-1])
        return self.wrap_block(vals)
