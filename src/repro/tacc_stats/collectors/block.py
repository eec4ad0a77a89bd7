"""``block`` collector: local block-device statistics per disk (as from
``/proc/diskstats``), sector counts (512 B sectors)."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["BlockCollector"]

_SECTOR = 512.0
_IO_BYTES = 64 * 1024.0


class BlockCollector(Collector):
    """rd_sectors / wr_sectors / rd_ios / wr_ios per local disk."""

    @property
    def type_name(self) -> str:
        return "block"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "block",
            (
                SchemaEntry("rd_sectors", is_event=True, unit="512B"),
                SchemaEntry("wr_sectors", is_event=True, unit="512B"),
                SchemaEntry("rd_ios", is_event=True),
                SchemaEntry("wr_ios", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return self.node.hardware.block_devices

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        n_dev = len(self.devices)
        # syslog etc. trickle when idle
        per_dev = block.rate("block_mb", 0.005) / n_dev
        # Per sample, per device: write then read draws.
        amounts = np.repeat(
            np.stack([per_dev * 0.7 * 1e6 * dt, per_dev * 0.3 * 1e6 * dt],
                     axis=-1)[:, None, :],
            n_dev, axis=1)
        b = self.noisy_block(amounts)
        wb, rb = b[..., 0], b[..., 1]
        inc = np.empty((block.n, n_dev, self._schema.n_values))
        inc[..., 0] = rb / _SECTOR
        inc[..., 1] = wb / _SECTOR
        inc[..., 2] = rb / _IO_BYTES
        inc[..., 3] = wb / _IO_BYTES
        return self.wrap_block(self.accumulate_block(inc))
