"""``net`` collector: per-interface byte/packet counters (as from
``/sys/class/net/*/statistics``).

Ethernet carries NFS and service traffic; ``ib0`` (IPoIB) carries a small
slice of the MPI fabric traffic that goes through the IP stack.  Real
``/sys`` byte counters on these kernels were 32-bit on some drivers — we
keep eth0 at 32 bits so the rollover-correction path is exercised by real
data, as it was in production.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["NetCollector"]

_MTU = 1500.0
_IPOIB_SHARE = 0.01  # share of MPI traffic that rides IPoIB


class NetCollector(Collector):
    """rx_bytes / tx_bytes / rx_packets / tx_packets per interface."""

    @property
    def type_name(self) -> str:
        return "net"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "net",
            (
                SchemaEntry("rx_bytes", is_event=True, unit="B", width=32),
                SchemaEntry("tx_bytes", is_event=True, unit="B", width=32),
                SchemaEntry("rx_packets", is_event=True),
                SchemaEntry("tx_packets", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return self.node.hardware.net_devices

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        eth_mb = block.rate("net_eth_mb", 0.002)
        mpi_mb = block.rate("net_mpi_mb")
        mb = np.empty((block.n, len(self.devices)))
        for d, dev in enumerate(self.devices):
            mb[:, d] = mpi_mb * _IPOIB_SHARE if dev.startswith("ib") else eth_mb
        # Per sample, per device: tx then rx draws.  The association
        # (mb * 1e6) * dt [* 0.9] is part of the pinned archive bytes.
        base = mb * 1e6 * dt[:, None]
        amounts = np.stack([base, base * 0.9], axis=-1)
        txrx = self.noisy_block(amounts)
        tx, rx = txrx[..., 0], txrx[..., 1]
        inc = np.empty((block.n, len(self.devices), self._schema.n_values))
        inc[..., 0] = rx
        inc[..., 1] = tx
        inc[..., 2] = rx / _MTU
        inc[..., 3] = tx / _MTU
        return self.wrap_block(self.accumulate_block(inc))
