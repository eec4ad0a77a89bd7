"""Collector base class and shared accumulation machinery.

A collector owns one record type.  It keeps cumulative per-device
accumulators (floats internally, rendered as integers modulo the schema's
counter width — exactly the rollover behaviour of the real registers) and
converts the node's *rates* into counter increments over each sample's
``dt``.  Collectors work a block of consecutive samples at a time: the
synthesis engine (:class:`repro.tacc_stats.synth.NodeSynth`) hands each
one a :class:`BlockContext` and gets back ``[T, devices, values]`` rows.

When no job runs on the node, a sample is marked idle and collectors
account only background OS activity, so idle-node samples look like real
idle nodes rather than flat zeros.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.schema import TypeSchema
from repro.workload.applications import RATE_INDEX

__all__ = ["BlockContext", "Collector", "core_fractions_block"]


@dataclass(frozen=True)
class BlockContext:
    """A whole batch of consecutive invocations, for vectorized kernels.

    One BlockContext covers samples that share collector state (no PMC
    reprogramming boundary inside it).  ``rates`` rows where ``idle`` is
    True are placeholders (zeros) — kernels must route idle samples
    through their idle defaults, which :meth:`rate` handles for the
    common case.

    Attributes
    ----------
    times:
        ``[T]`` facility epoch seconds, strictly ordered.
    dts:
        ``[T]`` seconds since the previous invocation (0 at daemon
        start); never negative.
    rates:
        ``[T, n_fields]`` node-level rate matrix (zero rows when idle).
    idle:
        ``[T]`` bool — True where no job ran over the sample's interval.
    """

    times: np.ndarray
    dts: np.ndarray
    rates: np.ndarray
    idle: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.dts) < 0):
            raise ValueError("negative dt")

    @property
    def n(self) -> int:
        return self.times.shape[0]

    def rate(self, name: str, default: float = 0.0) -> np.ndarray:
        """``[T]`` named rate, with the idle-node default applied."""
        return np.where(self.idle, default, self.rates[:, RATE_INDEX[name]])


class Collector(ABC):
    """Base class: accumulate event counters, emit schema-conformant rows."""

    #: Relative per-sample measurement jitter applied to rate-driven
    #: increments (real counters are exact, but the *rates* we derive from
    #: them never are; keeping this small lets the fast path agree with the
    #: collected data within test tolerances).
    NOISE_SIGMA = 0.015

    def __init__(self, node: Node, rng: np.random.Generator):
        self.node = node
        self.rng = rng
        self._schema = self.build_schema()
        self._devices = self.build_devices()
        if not self._devices:
            raise ValueError(f"{self.type_name}: no devices")
        #: ``[D, K]`` float accumulators: devices in order, values in
        #: schema order.
        self._acc = np.zeros((len(self._devices), self._schema.n_values))

    # -- to be provided by subclasses ---------------------------------------

    @property
    @abstractmethod
    def type_name(self) -> str:
        """Record type name (schema line / data row prefix)."""

    @abstractmethod
    def build_schema(self) -> TypeSchema:
        """Construct this collector's schema."""

    @abstractmethod
    def build_devices(self) -> tuple[str, ...]:
        """Enumerate device names on this node."""

    @abstractmethod
    def sample_block(self, block: BlockContext) -> np.ndarray:
        """Advance through a whole block; return ``[T, D, K]`` uint64 rows.

        Kernels consume their RNG stream time-major, then in a fixed
        per-sample order of their own, and leave ``self._acc`` at the
        end-of-block state, so a node's output does not depend on where
        its samples are cut into blocks (archive bytes are pinned by
        the golden digests in ``tests/data``).
        """

    # -- common machinery ----------------------------------------------------

    @property
    def schema(self) -> TypeSchema:
        return self._schema

    @property
    def devices(self) -> tuple[str, ...]:
        return self._devices

    def on_job_begin(self, jobid: str, time: float) -> None:
        """Hook at job start (PMC collectors reprogram counters here)."""

    def on_job_end(self, jobid: str, time: float) -> None:
        """Hook at job end."""

    # -- block machinery -----------------------------------------------------

    def noisy_block(self, amounts: np.ndarray) -> np.ndarray:
        """Apply the per-sample measurement jitter to an array of
        increments.

        Draws one lognormal per strictly-positive amount, in C order;
        zero or negative amounts draw nothing and contribute zero.  A
        kernel's draw sequence is therefore fixed by how it lays out its
        amounts, which is why every kernel states that layout.
        """
        amounts = np.ascontiguousarray(amounts, dtype=np.float64)
        out = np.zeros_like(amounts)
        flat = amounts.reshape(-1)
        mask = flat > 0
        n = int(mask.sum())
        if n:
            draws = self.rng.lognormal(0.0, self.NOISE_SIGMA, size=n)
            out.reshape(-1)[mask] = flat[mask] * draws
        return out

    def _store_carry(self, acc_last: np.ndarray) -> None:
        """Keep the end-of-block ``[D, K]`` state as ``_acc``."""
        self._acc = np.array(acc_last, dtype=np.float64)

    def accumulate_block(self, inc: np.ndarray) -> np.ndarray:
        """Integrate per-sample increments ``[T, D, K]`` from the carried
        accumulator state; returns the ``[T, D, K]`` float accumulator
        trajectory and stores the final state back in ``_acc``.

        ``np.cumsum`` over the carry-prefixed series adds left to right,
        so the trajectory is the same however a node's samples are cut
        into blocks.
        """
        acc0 = self._acc
        acc = np.cumsum(
            np.concatenate([acc0[None, :, :], inc], axis=0), axis=0)[1:]
        self._store_carry(acc[-1] if inc.shape[0] else acc0)
        return acc

    def wrap_block(self, acc: np.ndarray) -> np.ndarray:
        """Render float accumulators as the registers' uint64 values.

        ``int(v) % 2**w`` per value: all schema widths are powers of
        two, so truncation plus a mask is exact for every magnitude the
        synthesizer produces (far below 2**63).
        """
        masks = np.array([e.modulus - 1 for e in self._schema.entries],
                         dtype=np.uint64)
        return acc.astype(np.int64).astype(np.uint64) & masks


def core_fractions_block(node_fraction: np.ndarray, n_cores: int) -> np.ndarray:
    """Distribute node-level busy fractions ``[T]`` across cores,
    fill-first → ``[T, n_cores]``.

    A job at 25 % node utilization on 16 cores shows up as 4 busy cores
    and 12 idle ones — which is what ``/proc/stat`` actually looks like
    for undersubscribed jobs, and what makes per-core resolution (the
    paper's key advance over sar) informative.  Out-of-range fractions
    are clipped to [0, 1]; the partially busy core gets the exact
    ``total - full`` remainder.
    """
    f = np.clip(np.asarray(node_fraction, dtype=np.float64), 0.0, 1.0)
    total = f * n_cores
    full = total.astype(np.int64)
    out = (np.arange(n_cores)[None, :] < full[:, None]).astype(np.float64)
    rows = np.flatnonzero(full < n_cores)
    out[rows, full[rows]] = total[rows] - full[rows]
    return out
