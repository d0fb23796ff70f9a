"""The gated ``telemetry.json`` document: build, check, render.

The document is a *fully deterministic* digest of one telemetry-enabled
pass of the pinned serve workload: event-log counts and a sha256 of the
canonical JSONL lines, compact gauge summaries (count/last/max plus a
per-series digest), counters, per-SLO-class latency sketches, and the
breaker chronology verbatim.  Every field is a pure function of
the seeded workload, so :func:`check_telemetry` gates with **exact
equality** — any drift means the service's observable behavior changed
and the baseline must be recommitted deliberately (the same contract as
the simulated sections of ``BENCH_serve.json``).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.bench import exact_diff

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

SCHEMA_VERSION = 2


def _slo_section(telemetry: "Telemetry") -> dict[str, Any]:
    """Per-SLO-class deadline hit rates from the terminal events."""
    out: dict[str, dict[str, Any]] = {}
    for e in telemetry.events_of("terminal"):
        entry = out.setdefault(
            str(e["slo"]), {"jobs": 0, "deadline_hits": 0, "shed": 0}
        )
        entry["jobs"] += 1
        entry["deadline_hits"] += int(bool(e["deadline_hit"]))
        entry["shed"] += int(e["disposition"] == "shed")
    for entry in out.values():
        entry["hit_rate"] = (
            entry["deadline_hits"] / entry["jobs"] if entry["jobs"] else 0.0
        )
    return dict(sorted(out.items()))


def build_telemetry_doc(
    telemetry: "Telemetry", config: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The gated document of one telemetry capture."""
    lines = telemetry.event_log_lines()
    by_kind: dict[str, int] = {}
    for e in telemetry.events:
        by_kind[e["ev"]] = by_kind.get(e["ev"], 0) + 1
    log_digest = hashlib.sha256(
        "".join(line + "\n" for line in lines).encode()
    ).hexdigest()
    series = telemetry.series.as_dict()
    span_events = sum(len(v["events"]) for v in telemetry.solver.values())
    return {
        "version": SCHEMA_VERSION,
        "config": dict(config or {}),
        "events": {
            "count": len(lines),
            "by_kind": dict(sorted(by_kind.items())),
            "digest": log_digest,
        },
        "counters": series["counters"],
        "gauges": series["gauges"],
        "latency_sketches": {
            slo: telemetry.sketches[slo].as_dict()
            for slo in sorted(telemetry.sketches)
        },
        "solver": {
            "attempts_with_spans": len(telemetry.solver),
            "span_events": span_events,
        },
        "slo": _slo_section(telemetry),
        # the flight-recorder dashboard's raw material: attempt spans for
        # the machine-lane timeline plus the queue-depth change points —
        # deterministic, so it gates with the rest
        "timeline": {
            "attempts": telemetry.attempt_spans(),
            "queue_depth": [
                [t, v]
                for t, v in (
                    telemetry.series.gauges["queue_depth"].samples
                    if "queue_depth" in telemetry.series.gauges
                    else []
                )
            ],
            "machines": sorted(
                {s["machine"] for s in telemetry.attempt_spans()}
            ),
        },
        "breaker_chronology": telemetry.events_of("breaker"),
    }


def check_telemetry(
    fresh: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Gate failures of a fresh telemetry doc vs the baseline ([] = pass).

    Everything is deterministic, so the whole document compares exactly
    (:func:`repro.bench.exact_diff`); each failure names the JSON path of
    the drifted leaf (``events.by_kind.retry_fire``, ``counters.dispatches``)
    so a deliberate behavior change is easy to audit before recommitting.
    """
    if fresh.get("version") != baseline.get("version"):
        return [
            f"telemetry schema version {fresh.get('version')} != baseline "
            f"{baseline.get('version')} — regenerate the baseline"
        ]
    return exact_diff(fresh, baseline)


def render_telemetry(doc: dict[str, Any]) -> str:
    """One-paragraph console rendering of a telemetry document."""
    ev = doc.get("events", {})
    sketches = doc.get("latency_sketches", {})
    lines = [
        f"telemetry: {ev.get('count', 0)} lifecycle events "
        f"({', '.join(f'{k}:{v}' for k, v in ev.get('by_kind', {}).items())})",
        f"solver spans: {doc.get('solver', {}).get('span_events', 0)} events "
        f"across {doc.get('solver', {}).get('attempts_with_spans', 0)} attempts",
    ]
    for slo, sk in sketches.items():
        q = sk.get("quantiles", {})
        lines.append(
            f"latency[{slo}]: n={sk.get('count', 0)} "
            f"p50={q.get('p50', 0.0):.3g} p95={q.get('p95', 0.0):.3g} "
            f"p99={q.get('p99', 0.0):.3g} max={sk.get('max', 0.0):.3g}"
        )
    if doc.get("breaker_chronology"):
        lines.append(f"breaker transitions: {len(doc['breaker_chronology'])}")
    return "\n".join(lines)
