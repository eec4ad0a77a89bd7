"""``cpu`` collector: per-core scheduler accounting (as from ``/proc/stat``).

Values are cumulative centiseconds per core.  Node-level busy fractions
from the job behaviour are distributed across cores fill-first (see
:func:`repro.tacc_stats.collectors.base.core_fractions_block`): this is what
gives TACC_Stats its per-core resolution of undersubscribed jobs.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import (
    BlockContext,
    Collector,
    core_fractions_block,
)
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["CpuCollector"]

#: Background OS activity on an idle node (fractions of one core-second).
_IDLE_SYS_FRAC = 0.002
_IDLE_IRQ_FRAC = 0.0003


class CpuCollector(Collector):
    """Per-core user/nice/system/idle/iowait/irq/softirq centiseconds."""

    @property
    def type_name(self) -> str:
        return "cpu"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "cpu",
            tuple(
                SchemaEntry(k, is_event=True, unit="cs")
                for k in ("user", "nice", "system", "idle", "iowait",
                          "irq", "softirq")
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.node.hardware.cores))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        n = self.node.hardware.cores
        dt_cs = np.asarray(block.dts, dtype=np.float64) * 100.0
        user_f = block.rate("cpu_user_frac")
        sys_f = block.rate("cpu_sys_frac", _IDLE_SYS_FRAC)
        wait_f = block.rate("cpu_iowait_frac")
        # System time is spread by the kernel across all cores, so each
        # core only has (1 - sys) capacity for user time; iowait fills
        # from the top (idle-side) cores.  This keeps the node-level
        # column sums exactly at the requested fractions — naive
        # fill-first would oversubscribe the busy cores and the clip
        # below would silently convert user time into idle.
        sys_c = np.minimum(sys_f, 1.0)
        cap = np.maximum(1.0 - sys_c, 1e-6)
        per_core_user = (
            core_fractions_block(np.minimum(user_f / cap, 1.0), n)
            * cap[:, None])
        per_core_sys = np.repeat(sys_c[:, None], n, axis=1)
        per_core_wait = (
            core_fractions_block(np.minimum(wait_f / cap, 1.0), n)[:, ::-1]
            * cap[:, None])
        # Draw order: time-major, then per core the (user, system,
        # iowait) triple.  dt <= 0 rows contribute zero amounts, so they
        # draw nothing and add nothing.
        amounts = (
            np.stack([per_core_user, per_core_sys, per_core_wait], axis=-1)
            * dt_cs[:, None, None])
        usw = self.noisy_block(amounts)
        u, s, w = usw[..., 0], usw[..., 1], usw[..., 2]
        irq = np.repeat((_IDLE_IRQ_FRAC * dt_cs)[:, None], n, axis=1)
        soft = 0.5 * irq
        busy = u + s + w + irq + soft
        cap_cs = dt_cs[:, None]
        over = busy > cap_cs
        idle = cap_cs - busy
        if over.any():
            scale = np.broadcast_to(cap_cs, busy.shape)[over] / busy[over]
            for arr in (u, s, w, irq, soft):
                arr[over] = arr[over] * scale
            idle[over] = 0.0
        inc = np.zeros((block.n, n, self._schema.n_values))
        inc[..., 0] = u
        inc[..., 2] = s
        inc[..., 3] = idle
        inc[..., 4] = w
        inc[..., 5] = irq
        inc[..., 6] = soft
        return self.wrap_block(self.accumulate_block(inc))
