"""Unified service telemetry: job-lifecycle events in simulated time.

One :class:`Telemetry` instance rides through a service run
(:meth:`repro.serve.service.EigenService.run_workload` →
:func:`repro.serve.resilience.run_resilient`) and records

* a **structured event log**: every lifecycle transition (``submit`` →
  ``plan`` → ``dispatch`` → ``attempt_end`` / ``retry_scheduled`` /
  ``breaker`` → ``terminal``) as one
  dict stamped with its simulated time ``t`` and a total-order ``seq``;
* a :class:`~repro.obs.series.SeriesRegistry` of counters and
  change-only gauges (queue depth, per-machine busy ranks and breaker
  state, cache hit counts) sampled at event-loop steps;
* per-SLO-class latency :class:`~repro.metrics.sketch.LatencySketch`\\ es;
* captured **solver spans**: when ``capture_solver_spans`` is on, each
  job attempt's :class:`~repro.bsp.machine.BSPMachine` runs with span
  recording enabled and its :class:`~repro.trace.spans.SpanEvent` tree is
  attached under the owning ``(job, attempt)`` trace context, letting the
  merged Perfetto export (:mod:`repro.obs.perfetto`) nest solver tracks
  under service attempt slices via flow events.

Everything is driven by the simulated clock — no wall time, no PIDs, no
randomness — so two runs of the same seeded workload produce
byte-identical event logs (gated by ``tests/test_obs.py``).

Like spans (``NULL_SPAN``), faults (``NO_FAULTS``) and metrics
(``NO_METRICS``), the disabled path is an inert singleton:
:data:`NO_TELEMETRY` answers every hook with a constant-time no-op and
``enabled`` is False, so a telemetry-off service run executes the exact
pre-telemetry code path (byte-identical ``BENCH_serve.json``, journals,
and pinned traces).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.metrics.sketch import LatencySketch
from repro.obs.series import SeriesRegistry

#: breaker-state gauge encoding (docs/observability.md "Service telemetry")
BREAKER_STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}

#: every event kind the serve layer emits, in lifecycle order
EVENT_KINDS = (
    "submit",
    "plan",
    "dispatch",
    "attempt_end",
    "retry_scheduled",
    "retry_fire",
    "breaker",
    "terminal",
)


class NoTelemetry:
    """Inert telemetry (the default everywhere): the hooks callers make
    without checking ``enabled`` are no-ops."""

    __slots__ = ()
    enabled = False
    capture_solver_spans = False

    def emit(self, ev: str, t: float, **fields: object) -> None:
        pass

    def counter(self, name: str, value: float = 1.0) -> None:
        pass

    def __repr__(self) -> str:
        return "NO_TELEMETRY"


#: shared inert instance — identity-comparable, like NO_FAULTS / NO_METRICS
NO_TELEMETRY = NoTelemetry()


class Telemetry:
    """Live telemetry collector for one service run.

    ``capture_solver_spans`` controls whether job solves run with span
    recording enabled (costs and spectra are byte-identical either way —
    the same chase loop runs, and its charge log's flush also replays the
    span points — but wall-clock is slower, so soak runs turn it off).
    """

    enabled = True

    def __init__(self, capture_solver_spans: bool = True):
        self.capture_solver_spans = capture_solver_spans
        #: structured lifecycle events in emission order
        self.events: list[dict] = []
        self.series = SeriesRegistry()
        #: per-SLO-class latency sketches (terminal latencies)
        self.sketches: dict[str, LatencySketch] = {}
        #: trace context "job:attempt" -> {"p": ..., "events": [span dicts]}
        self.solver: dict[str, dict] = {}
        self._seq = 0

    # -------------------------------------------------------------- #
    # recording hooks (called from repro.serve)

    def emit(self, ev: str, t: float, **fields: object) -> None:
        """Record one lifecycle event at simulated time ``t``."""
        rec: dict = {"ev": ev, "t": float(t), "seq": self._seq}
        self._seq += 1
        rec.update(fields)
        self.events.append(rec)

    def counter(self, name: str, value: float = 1.0) -> None:
        self.series.counter_inc(name, value)

    def gauge(self, name: str, t: float, value: float) -> None:
        self.series.gauge(name, t, value)

    def observe_latency(self, slo: str, value: float) -> None:
        sk = self.sketches.get(slo)
        if sk is None:
            sk = self.sketches[slo] = LatencySketch()
        sk.observe(value)

    def attach_solver_spans(
        self, job: str, attempt: int, p: int, events: Iterable[dict]
    ) -> None:
        """Bind a solve's span events to its ``(job, attempt)`` context.

        Idempotent: the first attach of a ``(job, attempt)`` context wins
        and a repeat is ignored.
        """
        key = f"{job}:{attempt}"
        if key in self.solver:
            return
        self.solver[key] = {"p": int(p), "events": list(events)}
        self.counter("solver_span_captures")
        self.counter("solver_spans", float(len(self.solver[key]["events"])))

    # -------------------------------------------------------------- #
    # views

    def events_of(self, *kinds: str) -> list[dict]:
        want = set(kinds)
        return [e for e in self.events if e["ev"] in want]

    def event_log_lines(self) -> list[str]:
        """One canonical JSON line per event (sorted keys, repr floats) —
        the byte-comparable determinism artifact."""
        return [json.dumps(e, sort_keys=True) for e in self.events]

    def attempt_spans(self) -> list[dict]:
        """Service-level attempt spans derived from dispatch events: one
        per (job, attempt, kind) with machine placement and [start, finish]
        in simulated time.  The raw material for the merged Perfetto trace
        and the dashboard timeline."""
        spans = []
        for e in self.events:
            if e["ev"] != "dispatch":
                continue
            spans.append(
                {
                    "job": e["job"],
                    "attempt": e["attempt"],
                    "kind": e["kind"],
                    "rung": e["rung"],
                    "p": e["p"],
                    "machine": e["machine"],
                    "probe": e["probe"],
                    "ok": e["ok"],
                    "start": e["t"],
                    "finish": e["finish"],
                }
            )
        return spans

    def __repr__(self) -> str:
        return (
            f"Telemetry(events={len(self.events)}, "
            f"gauges={len(self.series.gauges)}, solver={len(self.solver)})"
        )
