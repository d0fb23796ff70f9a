"""The result types of simulated-time scheduling.

A :class:`Schedule` answers "when did each job run, and where" in
*simulated BSP time*: a job's service time is the modeled
T = γF + βW + νQ + αS of its measured cost report, and arrivals come from
the workload trace.  The event loop that fills it in is
:func:`repro.serve.resilience.run_resilient` (its docstring states the
dispatch order).  Rows carry a terminal ``disposition``
(``ok | degraded | error``): *every* submitted job gets a row here, not
just the successes — failed jobs consumed machine time and count in the
latency percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


@dataclass
class ScheduledJob:
    """Placement decision for one job, all times simulated."""

    job_id: int
    machine_id: int
    p: int
    arrival: float
    start: float
    finish: float
    disposition: str = "ok"   # terminal disposition: ok|degraded|error
    attempts: int = 1         # executed attempts (retries included)

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queue wait + service)."""
        return self.finish - self.arrival


@dataclass
class Schedule:
    """The full placement of a workload onto a pool."""

    jobs: list[ScheduledJob]
    makespan: float       # last finish − first arrival
    utilization: float    # busy rank-time / (total ranks × makespan)
    busy_rank_time: float

    def latencies(self) -> list[float]:
        """Latencies of every job, error jobs included."""
        return [j.latency for j in self.jobs]

    def percentile(self, q: float) -> float:
        """Exact latency percentile (nearest-rank on the sorted list)."""
        lats = sorted(self.latencies())
        if not lats:
            return 0.0
        idx = min(len(lats) - 1, max(0, math.ceil(q / 100.0 * len(lats)) - 1))
        return lats[idx]

    def dispositions(self) -> dict[str, int]:
        """Histogram disposition -> job count (sorted by name)."""
        out: dict[str, int] = {}
        for j in self.jobs:
            out[j.disposition] = out.get(j.disposition, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> dict[str, Any]:
        lats = self.latencies()
        return {
            "jobs": len(self.jobs),
            "makespan": self.makespan,
            "utilization": self.utilization,
            "latency_p50": self.percentile(50.0),
            "latency_p99": self.percentile(99.0),
            "latency_mean": sum(lats) / len(lats) if lats else 0.0,
            "latency_max": max(lats) if lats else 0.0,
            "dispositions": self.dispositions(),
        }
