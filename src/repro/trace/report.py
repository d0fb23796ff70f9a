"""Per-span cost breakdown: the critical-path view of a traced run.

:func:`build_breakdown` turns a :class:`~repro.trace.spans.SpanRecorder`'s
exclusive per-path buckets into :class:`SpanCost` rows — one per span path
plus an ``"(untraced)"`` remainder — whose per-rank counter arrays sum to
the machine's global counters **bit-exactly** (checked by
:meth:`SpanBreakdown.verify_exact`).  Each row carries the max-over-ranks
F/W/Q/S of the span's exclusive deltas (the BSP critical-path convention)
and the modeled time γF + βW + νQ + αS, so sorting rows by time *is* the
critical-path breakdown.

Reports are attached to :class:`~repro.bsp.counters.CostReport` snapshots
taken on a span-enabled machine; read them with ``report.by_span()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.bsp.params import MachineParams
from repro.trace.spans import SPAN_FIELDS, UNTRACED, field_arrays

if TYPE_CHECKING:
    from repro.trace.spans import SpanRecorder


@dataclass(frozen=True)
class SpanCost:
    """Exclusive cost of one span path (aggregated over all its calls).

    ``flops``/``words``/``mem_traffic``/``supersteps`` are maxima over
    ranks of the exclusive deltas; ``total_*`` are sums over ranks;
    ``time`` is the modeled γF + βW + νQ + αS and ``share`` its fraction
    of the breakdown's total modeled time.
    """

    path: str
    calls: int
    flops: float
    words: float
    mem_traffic: float
    supersteps: int
    total_flops: float
    total_words: float
    total_mem_traffic: float
    time: float
    share: float


@dataclass(frozen=True)
class SpanBreakdown:
    """All span rows of one run, plus the exactness machinery.

    ``rows`` are in first-open order with ``"(untraced)"`` last; the
    untraced row is defined as *global minus the attributed rows* (in that
    same order), which is what makes the row sums telescope back to the
    global counters exactly.
    """

    p: int
    rows: tuple[SpanCost, ...]
    #: span paths still open when the snapshot was taken (their rows hold
    #: the exclusive cost attributed so far)
    open_paths: tuple[str, ...] = ()
    #: per-path per-field per-rank exclusive arrays, in row order
    per_rank: dict = field(repr=False, compare=False, default_factory=dict)
    #: global per-rank counter arrays at snapshot time
    global_arrays: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(r.time for r in self.rows)

    def by_time(self) -> list[SpanCost]:
        """Rows sorted by modeled time, descending — the critical path."""
        return sorted(self.rows, key=lambda r: r.time, reverse=True)

    def verify_exact(self) -> list[str]:
        """Fields whose per-rank row sums are not bit-identical to the
        global counters ([] = the breakdown tiles the totals exactly)."""
        bad = []
        order = [r.path for r in self.rows if r.path != UNTRACED] + [UNTRACED]
        for f in SPAN_FIELDS:
            acc = np.zeros_like(self.global_arrays[f])
            for path in order:
                acc = acc + self.per_rank[path][f]
            if not np.array_equal(acc, self.global_arrays[f]):
                bad.append(f)
        return bad

    def render(self, title: str | None = None, min_share: float = 1e-12) -> str:
        """Fixed-width table of the breakdown, most expensive span first.

        Rows below ``min_share`` of the total modeled time (e.g. a
        float-residue untraced row on a fully instrumented run) are folded
        away.
        """
        from repro.report.tables import format_table  # late: avoid cycle

        total = self.total_time
        rows = []
        for r in self.by_time():
            if total > 0 and abs(r.time) < min_share * total:
                continue
            rows.append(
                [
                    r.path + (" *" if r.path in self.open_paths else ""),
                    r.calls,
                    f"{r.flops:.4g}",
                    f"{r.words:.4g}",
                    f"{r.mem_traffic:.4g}",
                    r.supersteps,
                    f"{r.time:.4g}",
                    f"{100.0 * r.share:.1f}%",
                ]
            )
        return format_table(
            ["span", "calls", "F", "W", "Q", "S", "time", "share"],
            rows,
            title=title or f"per-span cost breakdown (p={self.p}, exclusive deltas)",
        )


def build_breakdown(recorder: "SpanRecorder") -> SpanBreakdown:
    """Assemble a :class:`SpanBreakdown` from a (flushed) recorder."""
    params: MachineParams = recorder._params
    global_arrays = field_arrays(recorder._mark)

    order = [p for p in recorder._buckets if p != UNTRACED]
    per_rank: dict[str, dict[str, np.ndarray]] = {}
    attributed = {f: np.zeros_like(global_arrays[f]) for f in SPAN_FIELDS}
    for path in order:
        arrays = field_arrays(recorder._buckets[path])
        per_rank[path] = arrays
        for f in SPAN_FIELDS:
            attributed[f] = attributed[f] + arrays[f]
    # The untraced remainder is defined by subtraction so the row sums
    # telescope back to the global counters bit-exactly; it holds any
    # charges issued outside all spans (plus at most ulp-scale residue).
    per_rank[UNTRACED] = {f: global_arrays[f] - attributed[f] for f in SPAN_FIELDS}
    order.append(UNTRACED)

    times = {}
    for path in order:
        arrays = per_rank[path]
        words = arrays["words_sent"] + arrays["words_recv"]
        times[path] = params.time(
            float(arrays["flops"].max()),
            float(words.max()),
            float(arrays["mem_traffic"].max()),
            float(arrays["supersteps"].max()),
        )
    total_time = sum(times.values())

    rows = []
    for path in order:
        arrays = per_rank[path]
        words = arrays["words_sent"] + arrays["words_recv"]
        rows.append(
            SpanCost(
                path=path,
                calls=recorder._calls.get(path, 0),
                flops=float(arrays["flops"].max()),
                words=float(words.max()),
                mem_traffic=float(arrays["mem_traffic"].max()),
                supersteps=int(arrays["supersteps"].max()),
                total_flops=float(arrays["flops"].sum()),
                total_words=float(words.sum()),
                total_mem_traffic=float(arrays["mem_traffic"].sum()),
                time=times[path],
                share=times[path] / total_time if total_time > 0 else 0.0,
            )
        )
    return SpanBreakdown(
        p=recorder.p,
        rows=tuple(rows),
        open_paths=tuple(recorder.open_paths()),
        per_rank=per_rank,
        global_arrays=global_arrays,
    )
