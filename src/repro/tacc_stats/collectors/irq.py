"""``irq`` collector: hardware/software interrupt counts (as from
``/proc/interrupts`` aggregated per source)."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.workload.behavior import DerivedRates

__all__ = ["IrqCollector"]

_TIMER_HZ = 250.0  # CONFIG_HZ on the RHEL5-era kernels these systems ran
_IB_MTU = 2048.0
_ETH_MTU = 1500.0


class IrqCollector(Collector):
    """timer / eth / ib / block interrupt counters for the whole node."""

    @property
    def type_name(self) -> str:
        return "irq"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "irq",
            tuple(
                SchemaEntry(k, is_event=True)
                for k in ("timer", "eth", "ib", "block")
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        cores = self.node.hardware.cores
        eth_mb = block.rate("net_eth_mb", 0.002)
        ib_mb = np.where(
            block.idle, 0.01,
            DerivedRates.ib_tx_mb(block.rates) + DerivedRates.ib_rx_mb(block.rates))
        block_mb = block.rate("block_mb", 0.005)
        # Per sample: eth, ib, block draws (timer is deterministic).  IB
        # completions are coalesced ~8:1.
        amounts = np.stack([
            eth_mb * 1e6 / _ETH_MTU * dt,
            ib_mb * 1e6 / _IB_MTU / 8.0 * dt,
            block_mb * 1e6 / (64 * 1024) * dt,
        ], axis=-1)
        drawn = self.noisy_block(amounts)
        inc = np.empty((block.n, 1, self._schema.n_values))
        inc[:, 0, 0] = _TIMER_HZ * cores * dt
        inc[:, 0, 1:] = drawn
        return self.wrap_block(self.accumulate_block(inc))
