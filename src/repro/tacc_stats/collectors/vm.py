"""``vm`` collector: virtual-memory activity (as from ``/proc/vmstat``),
cumulative event counts for the whole node."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["VmCollector"]

_PAGE_KB = 4.0


class VmCollector(Collector):
    """pgpgin/pgpgout (KB paged), pswpin/pswpout (pages swapped),
    pgfault/pgmajfault."""

    @property
    def type_name(self) -> str:
        return "vm"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "vm",
            (
                SchemaEntry("pgpgin", is_event=True, unit="KB"),
                SchemaEntry("pgpgout", is_event=True, unit="KB"),
                SchemaEntry("pswpin", is_event=True),
                SchemaEntry("pswpout", is_event=True),
                SchemaEntry("pgfault", is_event=True),
                SchemaEntry("pgmajfault", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        read_mb = (
            block.rate("io_scratch_read_mb") + block.rate("io_work_read_mb")
            + block.rate("io_share_read_mb") + block.rate("block_mb") * 0.5
        )
        write_mb = (
            block.rate("io_scratch_write_mb") + block.rate("io_work_write_mb")
            + block.rate("io_share_write_mb") + block.rate("block_mb") * 0.5
        )
        swap_mb = block.rate("swap_mb")
        # Fault rate tracks memory churn; a floor keeps idle nodes alive.
        fault_rate = 50.0 + 2000.0 * block.rate("cpu_user_frac", 0.0)
        # Per sample: pgpgin, pgpgout, pswpin, pswpout, pgfault,
        # pgmajfault draws; dt <= 0 rows produce zero amounts, hence no
        # draws.
        amounts = np.stack([
            read_mb * 1024.0 * dt,
            write_mb * 1024.0 * dt,
            swap_mb * 1024.0 / _PAGE_KB * dt * 0.4,
            swap_mb * 1024.0 / _PAGE_KB * dt * 0.6,
            fault_rate * dt,
            0.002 * fault_rate * dt,
        ], axis=-1)
        inc = self.noisy_block(amounts)[:, None, :]
        return self.wrap_block(self.accumulate_block(inc))
