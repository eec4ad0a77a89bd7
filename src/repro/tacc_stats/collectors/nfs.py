"""``nfs`` collector: NFS client statistics per mount (as from
``/proc/self/mountstats``).

Lonestar4's home filesystem is NFS over Ethernet (paper §4.1); its
traffic shows up here rather than in the Lustre (llite) collector.  The
canonical rate vector's ``io_share_*`` fields drive whichever shared
non-scratch/work mount a system has — Lustre ``share`` on Ranger, NFS
``home`` on Lonestar4 — so the summarizer can fill the paper's
``io_share`` metrics from either collector.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["NfsCollector"]

_RPC_BYTES = 32 * 1024.0  # rsize/wsize of the era


class NfsCollector(Collector):
    """read_bytes / write_bytes / rpc_ops / retrans per NFS mount."""

    def __init__(self, node, rng, mounts: tuple[str, ...] = ("home",)):
        if not mounts:
            raise ValueError("nfs needs at least one mount")
        self._mounts = tuple(mounts)
        super().__init__(node, rng)

    @property
    def type_name(self) -> str:
        return "nfs"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "nfs",
            (
                SchemaEntry("read_bytes", is_event=True, unit="B"),
                SchemaEntry("write_bytes", is_event=True, unit="B"),
                SchemaEntry("rpc_ops", is_event=True),
                SchemaEntry("retrans", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return self._mounts

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        n_m = len(self.devices)
        # NFS mounts carry the canonical "share" traffic.
        w = block.rate("io_share_write_mb", 0.0)
        r = block.rate("io_share_read_mb", 0.0)
        # Per sample, per mount: write then read draws (amounts identical
        # across mounts, draws independent).
        amounts = np.repeat(
            np.stack([w * 1e6 * dt, r * 1e6 * dt], axis=-1)[:, None, :],
            n_m, axis=1)
        b = self.noisy_block(amounts)
        wb, rb = b[..., 0], b[..., 1]
        ops = (wb + rb) / _RPC_BYTES + (0.01 * dt)[:, None]
        inc = np.empty((block.n, n_m, self._schema.n_values))
        inc[..., 0] = rb
        inc[..., 1] = wb
        inc[..., 2] = ops
        inc[..., 3] = 1e-4 * ops
        return self.wrap_block(self.accumulate_block(inc))
