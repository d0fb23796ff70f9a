"""Span-based cost tracing over the BSP counter store.

A *span* is a named, nested region of a simulated run — a collective, a
sharded kernel, a block algorithm, an eig pipeline stage — opened with
:meth:`repro.bsp.machine.BSPMachine.span` as a context manager::

    with machine.span("full_to_band/panel_qr", group=qr_group):
        ...charges...

Counter deltas (F, words sent/received, Q, S — per rank) are attributed to
the **innermost open span**: at every span open and close the recorder
diffs the live counter store against its previous watermark and adds the
delta to the span that was active during that segment.  Charges issued
while no span is open land in the ``"(untraced)"`` bucket.

Exactness
---------
Attribution is *telescoped*: each segment delta is ``now − mark`` against
the store's own arrays, and the chronological accumulator re-adds those
deltas in segment order.  Because the accumulator always equals the
previous watermark bit-for-bit, ``acc + (now − mark)`` reproduces ``now``
exactly (the subtraction of two nearby accumulated sums is exact, and
adding it back telescopes) — so per-span deltas sum to the global counters
with **zero** float error.
:meth:`SpanRecorder.verify_attribution` asserts this with
``np.array_equal``, and :meth:`repro.trace.report.SpanBreakdown.verify_exact`
asserts the same for the rendered per-span rows.

The recorder reads the store only through its ``field_array`` accessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import TracebackType
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.bsp.params import MachineParams

if TYPE_CHECKING:
    from repro.trace.report import SpanBreakdown

#: additive per-rank counter quantities attributed to spans, in canonical
#: order (peak/current memory are high-water marks, not additive — excluded)
SPAN_FIELDS: tuple[str, ...] = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
)

#: bucket receiving charges issued while no span is open
UNTRACED = "(untraced)"


@dataclass(frozen=True)
class SpanEvent:
    """One completed span instance (the unit of the Chrome trace export).

    ``ts``/``dur`` are modeled BSP times (γF + βW + νQ + αS of the global
    critical path) at open and close; ``flops``/``words``/``mem_traffic``/
    ``supersteps`` are the max-over-ranks of the span's *exclusive* counter
    deltas (child spans' charges are not included).
    """

    path: str
    name: str
    depth: int
    group_size: int | None
    ts: float
    dur: float
    flops: float
    words: float
    mem_traffic: float
    supersteps: int
    #: the executing group's absolute ranks (None when the span was opened
    #: without a group); drives the per-rank track placement in the
    #: multi-track Chrome export
    ranks: tuple | None = None

    def as_dict(self) -> dict:
        """JSON-serializable form (floats round-trip IEEE doubles exactly,
        so a span event shipped across a process boundary — e.g. from a
        service worker solving one job — reconstructs bit-identically)."""
        return {
            "path": self.path,
            "name": self.name,
            "depth": self.depth,
            "group_size": self.group_size,
            "ts": self.ts,
            "dur": self.dur,
            "flops": self.flops,
            "words": self.words,
            "mem_traffic": self.mem_traffic,
            "supersteps": self.supersteps,
            "ranks": list(self.ranks) if self.ranks is not None else None,
        }


def span_event_from_dict(doc: dict) -> "SpanEvent":
    """Inverse of :meth:`SpanEvent.as_dict`."""
    ranks = doc.get("ranks")
    return SpanEvent(
        path=str(doc["path"]),
        name=str(doc["name"]),
        depth=int(doc["depth"]),
        group_size=doc["group_size"] if doc.get("group_size") is None else int(doc["group_size"]),
        ts=float(doc["ts"]),
        dur=float(doc["dur"]),
        flops=float(doc["flops"]),
        words=float(doc["words"]),
        mem_traffic=float(doc["mem_traffic"]),
        supersteps=int(doc["supersteps"]),
        ranks=tuple(ranks) if ranks is not None else None,
    )


class SpanHandle:
    """Context-manager base for spans; the disabled path is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


#: shared no-op handle returned when span tracing is disabled, so the
#: instrumented hot paths (collectives, kernels) cost two trivial calls
NULL_SPAN = SpanHandle()


class _Span(SpanHandle):
    """Live span handle bound to a recorder."""

    __slots__ = ("_recorder", "_name", "_group_size", "_ranks")

    def __init__(
        self,
        recorder: "SpanRecorder",
        name: str,
        group_size: int | None,
        ranks: tuple | None = None,
    ):
        self._recorder = recorder
        self._name = name
        self._group_size = group_size
        self._ranks = ranks

    def __enter__(self) -> "_Span":
        self._recorder.open(self._name, self._group_size, self._ranks)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._recorder.close()
        return False


class _OpenSpan:
    """Stack entry for one open span."""

    __slots__ = ("path", "name", "depth", "group_size", "ranks", "ts_open", "excl")

    def __init__(
        self,
        path: str,
        name: str,
        depth: int,
        group_size: int | None,
        ts_open: float,
        p: int,
        ranks: tuple | None = None,
    ):
        self.path = path
        self.name = name
        self.depth = depth
        self.group_size = group_size
        self.ranks = ranks
        self.ts_open = ts_open
        self.excl = _zero_arrays(p)


def _zero_arrays(p: int) -> dict[str, np.ndarray]:
    return {
        f: np.zeros(p, dtype=np.int64 if f == "supersteps" else np.float64)
        for f in SPAN_FIELDS
    }


class SpanRecorder:
    """Watermark-diffing span attribution over a counter store.

    One recorder lives on every :class:`~repro.bsp.machine.BSPMachine` as
    ``machine.spans``; it is inert (``enabled=False``) unless the machine
    was built with ``spans=True``.
    """

    def __init__(self, store: object, params: MachineParams, enabled: bool = False):
        self._store = store
        self._params = params
        self.enabled = enabled
        self.p = len(store)  # type: ignore[arg-type]
        self.events: list[SpanEvent] = []
        self._stack: list[_OpenSpan] = []
        #: per-path per-field per-rank exclusive sums, in first-open order
        self._buckets: dict[str, dict[str, np.ndarray]] = {}
        self._calls: dict[str, int] = {}
        #: chronological re-accumulation of every attributed segment delta;
        #: bit-equality with the live store is the no-orphan guarantee
        self._chron = _zero_arrays(self.p)
        self._mark = self._snapshot()

    # -------------------------------------------------------------- #
    # store access

    def _field_now(self, name: str) -> np.ndarray:
        return np.asarray(self._store.field_array(name))  # type: ignore[attr-defined]

    def _snapshot(self) -> dict[str, np.ndarray]:
        return {f: self._field_now(f).copy() for f in SPAN_FIELDS}

    def _model_time(self, arrays: dict[str, np.ndarray]) -> float:
        """Modeled critical-path time of a counter state (monotone in it)."""
        words = arrays["words_sent"] + arrays["words_recv"]
        return self._params.time(
            float(arrays["flops"].max()),
            float(words.max()),
            float(arrays["mem_traffic"].max()),
            float(arrays["supersteps"].max()),
        )

    def _bucket(self, path: str) -> dict[str, np.ndarray]:
        bucket = self._buckets.get(path)
        if bucket is None:
            bucket = self._buckets[path] = _zero_arrays(self.p)
            self._calls.setdefault(path, 0)
        return bucket

    # -------------------------------------------------------------- #
    # attribution core

    def flush(self) -> dict[str, np.ndarray]:
        """Attribute the counters-since-mark segment to the innermost open
        span (or the untraced bucket) and advance the watermark.  Returns
        the current counter arrays (copies)."""
        target = self._stack[-1] if self._stack else None
        bucket = self._bucket(target.path if target else UNTRACED)
        now: dict[str, np.ndarray] = {}
        for f in SPAN_FIELDS:
            cur = self._field_now(f).copy()
            d = cur - self._mark[f]
            self._chron[f] += d
            bucket[f] += d
            if target is not None:
                target.excl[f] += d
            self._mark[f] = cur
            now[f] = cur
        return now

    def open(
        self, name: str, group_size: int | None = None, ranks: tuple | None = None
    ) -> None:
        """Open a span; subsequent charges attribute to it until a child
        opens or it closes."""
        now = self.flush()
        parent = self._stack[-1].path if self._stack else ""
        path = f"{parent}/{name}" if parent else name
        self._bucket(path)  # register in first-open order for stable reports
        self._stack.append(
            _OpenSpan(
                path, name, len(self._stack), group_size, self._model_time(now), self.p, ranks
            )
        )

    def close(self) -> None:
        """Close the innermost span and emit its :class:`SpanEvent`."""
        if not self._stack:
            raise RuntimeError("span close without a matching open")
        now = self.flush()
        span = self._stack.pop()
        self._calls[span.path] = self._calls.get(span.path, 0) + 1
        words = span.excl["words_sent"] + span.excl["words_recv"]
        self.events.append(
            SpanEvent(
                path=span.path,
                name=span.name,
                depth=span.depth,
                group_size=span.group_size,
                ts=span.ts_open,
                dur=self._model_time(now) - span.ts_open,
                flops=float(span.excl["flops"].max()),
                words=float(words.max()),
                mem_traffic=float(span.excl["mem_traffic"].max()),
                supersteps=int(span.excl["supersteps"].max()),
                ranks=span.ranks,
            )
        )

    def handle(self, name: str, group: object = None) -> SpanHandle:
        """A context-manager handle for one span instance."""
        size = getattr(group, "size", None)
        ranks = getattr(group, "ranks", None)
        return _Span(
            self,
            name,
            int(size) if size is not None else None,
            tuple(ranks) if ranks is not None else None,
        )

    # -------------------------------------------------------------- #
    # lifecycle and checks

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def open_paths(self) -> list[str]:
        return [s.path for s in self._stack]

    def reset(self) -> None:
        """Drop all spans, events and buckets; re-mark from the (freshly
        reset) store.  Called by :meth:`BSPMachine.reset`."""
        self.events.clear()
        self._stack.clear()
        self._buckets.clear()
        self._calls.clear()
        self._chron = _zero_arrays(self.p)
        self._mark = self._snapshot()

    def verify_attribution(self) -> list[str]:
        """Fields where the chronologically re-accumulated span deltas are
        not bit-identical to the live counters ([] = exact attribution:
        nothing double-charged, nothing orphaned)."""
        self.flush()
        return [
            f for f in SPAN_FIELDS if not np.array_equal(self._chron[f], self._field_now(f))
        ]

    def breakdown(self) -> "SpanBreakdown":
        """Build the per-span cost breakdown (see :mod:`repro.trace.report`)."""
        from repro.trace.report import build_breakdown  # late: avoid cycle

        self.flush()
        return build_breakdown(self)

    def __repr__(self) -> str:
        return (
            f"SpanRecorder(p={self.p}, enabled={self.enabled}, "
            f"open={self.depth}, paths={len(self._buckets)})"
        )
