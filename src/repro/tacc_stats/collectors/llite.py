"""``llite`` collector: Lustre client statistics per mount (as from
``/proc/fs/lustre/llite/*/stats``).

One device per Lustre filesystem (``scratch``, ``work``, ``share``); the
paper's ``io_scratch_write`` and ``io_work_write`` key metrics come from
the ``write_bytes`` column here.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["LliteCollector"]

_RPC_BYTES = 1 << 20  # typical 1 MB bulk RPC


class LliteCollector(Collector):
    """read_bytes / write_bytes / open / close / getattr per mount."""

    def __init__(self, node, rng, mounts: tuple[str, ...] = ("scratch", "work", "share")):
        if not mounts:
            raise ValueError("llite needs at least one mount")
        self._mounts = tuple(mounts)
        super().__init__(node, rng)

    @property
    def type_name(self) -> str:
        return "llite"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "llite",
            (
                SchemaEntry("read_bytes", is_event=True, unit="B"),
                SchemaEntry("write_bytes", is_event=True, unit="B"),
                SchemaEntry("open", is_event=True),
                SchemaEntry("close", is_event=True),
                SchemaEntry("getattr", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return self._mounts

    def sample_block(self, block: BlockContext) -> np.ndarray:
        dt = np.asarray(block.dts, dtype=np.float64)
        n_m = len(self.devices)
        amounts = np.empty((block.n, n_m, 2))
        for m, mount in enumerate(self.devices):
            amounts[:, m, 0] = self.rate_block(block, f"io_{mount}_write_mb") * 1e6 * dt
            amounts[:, m, 1] = self.rate_block(block, f"io_{mount}_read_mb") * 1e6 * dt
        # Per sample, per mount: write then read draws.
        b = self.noisy_block(amounts)
        wb, rb = b[..., 0], b[..., 1]
        opens = (wb + rb) / (_RPC_BYTES * 64) + (0.002 * dt)[:, None]
        inc = np.empty((block.n, n_m, self._schema.n_values))
        inc[..., 0] = rb
        inc[..., 1] = wb
        inc[..., 2] = opens
        inc[..., 3] = opens
        inc[..., 4] = opens * 5.0
        return self.wrap_block(self.accumulate_block(inc))

    @staticmethod
    def rate_block(block: BlockContext, name: str) -> np.ndarray:
        """Rate lookup tolerating mounts absent from the canonical vector
        (e.g. a site-specific Lustre mount with no workload signature):
        zeros for unknown mounts and idle samples."""
        try:
            return block.rate(name, 0.0)
        except KeyError:
            return np.zeros(block.n)
