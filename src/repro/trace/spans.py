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
from typing import TYPE_CHECKING, Any

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

#: the counter state a charge log's flush hands its observers per point:
#: the span fields, then the live memory footprint a superstep sample reads
STATE_FIELDS: tuple[str, ...] = (*SPAN_FIELDS, "current_memory_words")

#: bucket receiving charges issued while no span is open
UNTRACED = "(untraced)"

_max = np.maximum.reduce  # ndarray.max without its Python-level wrapper


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


def _group_fields(group: object) -> tuple[int | None, tuple | None]:
    """A span's group as its event records it: (size, absolute ranks)."""
    size, ranks = getattr(group, "size", None), getattr(group, "ranks", None)
    return None if size is None else int(size), None if ranks is None else tuple(ranks)


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
        self.excl = np.zeros((len(SPAN_FIELDS), p))


def model_time(params: MachineParams, state: np.ndarray) -> Any:
    """Modeled critical-path time γF + βW + νQ + αS of a counter state
    ``state[field, rank]`` (fields in :data:`SPAN_FIELDS` order) from its
    maxima over ranks, as a float — or of states ``state[field, rank, k]``,
    as a list."""
    peaks = _max(state, axis=1)
    words = _max(state[1] + state[2], axis=0)
    # elementwise: the IEEE operations of ``params.time`` on each point's floats
    time = params.time(peaks[0], words, peaks[3], peaks[4])
    return float(time) if state.ndim == 2 else time.tolist()


def field_arrays(state: np.ndarray) -> dict[str, np.ndarray]:
    """A ``(field, rank)`` state as per-field arrays (copies; S as int64)."""
    return {f: row.astype(np.int64 if f == "supersteps" else np.float64) for f, row in zip(SPAN_FIELDS, state)}


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
        #: per-path ``(field, rank)`` exclusive sums, in first-open order
        self._buckets: dict[str, np.ndarray] = {}
        self._calls: dict[str, int] = {}
        #: chronological re-accumulation of every attributed segment delta;
        #: bit-equality with the live store is the no-orphan guarantee
        self._chron = np.zeros((len(SPAN_FIELDS), self.p))
        self._mark = self._now()
        #: the recorder of a charge log that holds unlanded entries: span
        #: opens and closes become its ordering points, since the live
        #: counters lack those entries (see :mod:`repro.bsp.batch`)
        self.log: Any = None

    # -------------------------------------------------------------- #
    # store access

    def _now(self) -> np.ndarray:
        """The live ``(field, rank)`` state (a float64 copy: S is exact)."""
        store: Any = self._store
        return np.array([store.field_array(f) for f in SPAN_FIELDS], dtype=np.float64)

    def _bucket(self, path: str) -> np.ndarray:
        bucket = self._buckets.get(path)
        if bucket is None:
            bucket = self._buckets[path] = np.zeros((len(SPAN_FIELDS), self.p))
            self._calls.setdefault(path, 0)
        return bucket

    # -------------------------------------------------------------- #
    # attribution core

    def _attribute(self, delta: np.ndarray) -> None:
        """Add one segment delta to the chronological sum, the innermost
        open span's bucket and exclusive sums (or the untraced bucket)."""
        target = self._stack[-1] if self._stack else None
        bucket = self._bucket(target.path if target else UNTRACED)
        self._chron += delta
        bucket += delta
        if target is not None:
            target.excl += delta

    def _push(self, name: str, group_size: int | None, ranks: tuple | None, ts: float) -> None:
        parent = self._stack[-1].path if self._stack else ""
        path = f"{parent}/{name}" if parent else name
        self._bucket(path)  # register in first-open order for stable reports
        self._stack.append(_OpenSpan(path, name, len(self._stack), group_size, ts, self.p, ranks))

    def _emit(self, closed: list[tuple[_OpenSpan, float]]) -> None:
        """Record the :class:`SpanEvent` of each ``(span, close time)``, in order."""
        excl = np.array([span.excl for span, _ in closed])
        peaks = _max(excl, axis=2).tolist()
        words = _max(excl[:, 1] + excl[:, 2], axis=1).tolist()
        for (span, ts_close), peak, w in zip(closed, peaks, words):
            self._calls[span.path] = self._calls.get(span.path, 0) + 1
            self.events.append(
                SpanEvent(
                    path=span.path,
                    name=span.name,
                    depth=span.depth,
                    group_size=span.group_size,
                    ts=span.ts_open,
                    dur=ts_close - span.ts_open,
                    flops=peak[0],
                    words=w,
                    mem_traffic=peak[3],
                    supersteps=int(peak[4]),
                    ranks=span.ranks,
                )
            )

    def flush(self) -> np.ndarray:
        """Attribute the counters-since-mark segment to the innermost open
        span (or the untraced bucket) and advance the watermark.  Returns
        the current ``(field, rank)`` counter state."""
        now = self._now()
        self._attribute(now - self._mark)
        self._mark = now
        return now

    def open(
        self, name: str, group_size: int | None = None, ranks: tuple | None = None
    ) -> None:
        """Open a span; subsequent charges attribute to it until a child
        opens or it closes."""
        if self.log is not None:
            self.log.open(name, group_size, ranks)
            return
        now = self.flush()
        self._push(name, group_size, ranks, model_time(self._params, now))

    def close(self) -> None:
        """Close the innermost span and emit its :class:`SpanEvent`."""
        if self.log is not None:
            self.log.close()
            return
        if not self._stack:
            raise RuntimeError("span close without a matching open")
        now = self.flush()
        self._emit([(self._stack.pop(), model_time(self._params, now))])

    def replay(self, marks: list, states: np.ndarray) -> None:
        """A flushed charge log's span opens (``marks[k]`` its ``(name,
        group size, ranks)``) and closes (``None``), the counter state at
        each being ``states[:, :, k]`` (``(field, rank)``): bit-identical to
        an :meth:`open` / :meth:`close` there."""
        if not marks:
            return
        points = states.transpose(2, 0, 1)
        deltas = np.empty(points.shape)  # a point's delta is a contiguous row
        np.subtract(points[0], self._mark, out=deltas[0])
        np.subtract(points[1:], points[:-1], out=deltas[1:])
        closed = []
        for mark, delta, ts in zip(marks, deltas, model_time(self._params, states)):
            self._attribute(delta)
            if mark is None:
                closed.append((self._stack.pop(), ts))
            else:
                self._push(*mark, ts)
        self._mark = points[-1].copy()
        if closed:
            self._emit(closed)

    def handle(self, name: str, group: object = None) -> SpanHandle:
        """A context-manager handle for one span instance."""
        return _Span(self, name, *_group_fields(group))

    # -------------------------------------------------------------- #
    # lifecycle and checks

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def open_paths(self) -> list[str]:
        return [s.path for s in self._stack]

    def verify_attribution(self) -> list[str]:
        """Fields where the chronologically re-accumulated span deltas are
        not bit-identical to the live counters ([] = exact attribution:
        nothing double-charged, nothing orphaned)."""
        now = self.flush()
        return [f for f, chron, live in zip(SPAN_FIELDS, self._chron, now)
                if not np.array_equal(chron, live)]

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
