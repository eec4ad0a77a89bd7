"""``ib`` collector: InfiniBand port counters (as from
``/sys/class/infiniband/*/ports/1/counters_ext``).

``port_xmit_data``/``port_rcv_data`` count 32-bit *words* (the IB spec's
PortCounters are in units of 4 bytes).  The legacy registers are 32 bits
wide and at tens of MB/s wrap inside one 10-minute interval — the mlx4
HCAs on both of the paper's systems therefore expose 64-bit
*ExtendedPortCounters*, which is what production TACC_Stats read and what
we model (the 32-bit rollover machinery is still exercised by the ``net``
collector's byte counters).  The fabric traffic here is MPI plus Lustre
(lnet rides IB on both systems); the ``net_ib_tx`` key metric derives
from these counters.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.workload.behavior import DerivedRates

__all__ = ["IbCollector"]

_WORD = 4.0  # bytes per IB counter word
_MTU = 2048.0


class IbCollector(Collector):
    """port_xmit_data / port_rcv_data (32-bit words) + packet counters."""

    @property
    def type_name(self) -> str:
        return "ib"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "ib",
            (
                SchemaEntry("port_xmit_data", is_event=True, unit="4B"),
                SchemaEntry("port_rcv_data", is_event=True, unit="4B"),
                SchemaEntry("port_xmit_pkts", is_event=True),
                SchemaEntry("port_rcv_pkts", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return self.node.hardware.ib_devices

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        # Idle nodes still carry subnet manager chatter.
        tx_mb = np.where(block.idle, 0.01, DerivedRates.ib_tx_mb(block.rates))
        rx_mb = np.where(block.idle, 0.01, DerivedRates.ib_rx_mb(block.rates))
        n_dev = len(self.devices)
        # Per sample, per device: tx then rx draws (amounts identical
        # across devices, draws independent).
        amounts = np.repeat(
            np.stack([tx_mb * 1e6 * dt, rx_mb * 1e6 * dt], axis=-1)[:, None, :],
            n_dev, axis=1)
        b = self.noisy_block(amounts)
        tx_b, rx_b = b[..., 0], b[..., 1]
        inc = np.empty((block.n, n_dev, self._schema.n_values))
        inc[..., 0] = tx_b / _WORD
        inc[..., 1] = rx_b / _WORD
        inc[..., 2] = tx_b / _MTU
        inc[..., 3] = rx_b / _MTU
        return self.wrap_block(self.accumulate_block(inc))
