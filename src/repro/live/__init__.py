"""Live streaming mode: continuous sampling, micro-batch ingest, and
between-query rate views.

The batch pipeline turns a finished study period into a warehouse; this
package turns the same machinery into something an operator *watches*:

* :class:`~repro.live.runner.LiveReplay` drives the per-node
  TACC_Stats processes incrementally, emitting samples into rolling
  archive segments (sub-day ``rotate_seconds`` cadence); the offline
  slow path advances the same driver in one pass.
* :class:`~repro.live.runner.LiveSession` micro-batches each completed
  segment through the ordinary watermark ledger
  (``ingest(mode="append")``), refreshes the rolling snapshot in
  place, and publishes per-job cumulative counters for rate views.
* :class:`~repro.live.rates.RateEngine` computes per-job rates
  *between successive queries* from those monotonic counters
  (wrap-safe deltas, glljobstat-style), with top-N ranking and
  user/app/metric filters — consumed by ``repro-top`` and the
  ``/api/v1/live/*`` service endpoints.

See ``docs/OBSERVABILITY.md`` ("Live monitoring") for the
architecture and cadence knobs.
"""

from repro.live.rates import (
    COUNTER_WRAP_BITS,
    JobRates,
    RateEngine,
    top_jobs,
    total_rates,
)
from repro.live.runner import (
    LIVE_COUNTER_METRICS,
    LiveBatchReport,
    LiveReplay,
    LiveSession,
)

__all__ = [
    "COUNTER_WRAP_BITS",
    "JobRates",
    "RateEngine",
    "top_jobs",
    "total_rates",
    "LIVE_COUNTER_METRICS",
    "LiveBatchReport",
    "LiveReplay",
    "LiveSession",
]
