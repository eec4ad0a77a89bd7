"""``ps`` collector: scheduler/process statistics (as from
``/proc/loadavg`` and ``/proc/stat``): load averages (scaled ×100 to stay
integral), runnable/thread counts, and the cumulative fork counter."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["PsCollector"]


class PsCollector(Collector):
    """load_1/load_5/load_15 (x100), nr_running, nr_threads, processes."""

    def __init__(self, node, rng):
        super().__init__(node, rng)
        self._load5 = 0.0
        self._load15 = 0.0

    @property
    def type_name(self) -> str:
        return "ps"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "ps",
            (
                SchemaEntry("load_1", unit="x100"),
                SchemaEntry("load_5", unit="x100"),
                SchemaEntry("load_15", unit="x100"),
                SchemaEntry("nr_running"),
                SchemaEntry("nr_threads"),
                SchemaEntry("processes", is_event=True),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        cores = self.node.hardware.cores
        dt = np.asarray(block.dts, dtype=np.float64)
        busy = block.rate("cpu_user_frac") + block.rate("cpu_sys_frac", 0.002)
        # One unconditional jitter draw per sample.
        load1 = busy * cores * self.rng.lognormal(0.0, 0.05, size=block.n)
        a5 = np.where(dt > 0, np.minimum(1.0, dt / 300.0), 1.0)
        a15 = np.where(dt > 0, np.minimum(1.0, dt / 900.0), 1.0)
        # Exponential smoothing stands in for the kernel's 5/15-min
        # decay.  The recurrence is inherently sequential; T is small
        # (samples per chunk), so a Python loop costs nothing next to
        # the kernels above.
        l5 = np.empty(block.n)
        l15 = np.empty(block.n)
        x5, x15 = self._load5, self._load15
        for i in range(block.n):
            x5 += float(a5[i]) * (float(load1[i]) - x5)
            x15 += float(a15[i]) * (float(load1[i]) - x15)
            l5[i] = x5
            l15[i] = x15
        self._load5, self._load15 = x5, x15
        running = np.maximum(1.0, np.round(busy * cores))
        vals = np.empty((block.n, 1, self._schema.n_values))
        vals[:, 0, 0] = np.maximum(load1 * 100, 0.0)
        vals[:, 0, 1] = np.maximum(l5 * 100, 0.0)
        vals[:, 0, 2] = np.maximum(l15 * 100, 0.0)
        vals[:, 0, 3] = running
        vals[:, 0, 4] = 120 + running * 2
        proc_carry = float(self._acc[0, 5])
        vals[:, 0, 5] = np.cumsum(
            np.concatenate([[proc_carry], 0.05 * np.maximum(dt, 0.0)]))[1:]
        if block.n:
            self._store_carry(vals[-1])
        return self.wrap_block(vals)
