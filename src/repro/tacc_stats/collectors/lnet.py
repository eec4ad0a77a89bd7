"""``lnet`` collector: Lustre networking counters (as from
``/proc/sys/lnet/stats``).

The ``net_lnet_tx`` key metric comes from here.  lnet traffic is the
Lustre file traffic as seen on the wire (bulk RPCs plus protocol
overhead); it rides the InfiniBand fabric on both of the paper's systems.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.workload.behavior import DerivedRates

__all__ = ["LnetCollector"]

_MSG_BYTES = 1 << 20


class LnetCollector(Collector):
    """tx_bytes / rx_bytes / tx_msgs / rx_msgs for the node's lnet NI."""

    @property
    def type_name(self) -> str:
        return "lnet"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "lnet",
            (
                SchemaEntry("tx_bytes", is_event=True, unit="B"),
                SchemaEntry("rx_bytes", is_event=True, unit="B"),
                SchemaEntry("tx_msgs", is_event=True),
                SchemaEntry("rx_msgs", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        floor = DerivedRates.LNET_FLOOR_MB
        tx_mb = np.where(block.idle, floor, DerivedRates.lnet_tx_mb(block.rates))
        rx_mb = np.where(block.idle, floor, DerivedRates.lnet_rx_mb(block.rates))
        # Per sample: tx then rx draws.
        amounts = np.stack([tx_mb * 1e6 * dt, rx_mb * 1e6 * dt], axis=-1)
        b = self.noisy_block(amounts)
        tx_b, rx_b = b[:, 0], b[:, 1]
        inc = np.empty((block.n, 1, self._schema.n_values))
        inc[:, 0, 0] = tx_b
        inc[:, 0, 1] = rx_b
        inc[:, 0, 2] = tx_b / _MSG_BYTES + 0.01 * dt
        inc[:, 0, 3] = rx_b / _MSG_BYTES + 0.01 * dt
        return self.wrap_block(self.accumulate_block(inc))
