"""One charge path: a ChargeLog records, its flush lands, kernel tapes replay.

The chase stages (:func:`repro.eig.band_to_band.band_to_band_2p5d` and
CA-SBR, :mod:`repro.eig.ca_sbr`) and full-to-band write their charges to a
:class:`ChargeLog`.  A log is a recorder (:class:`_Recorder`): per counter
field, the (rank, amount) entries of every append in program order, one
growing column each.  On a machine with spans, metrics or fault injection
it also records the *ordering points* at which an observer sees the
stream — one per comm append, one per barrier, and one per span open or
close issued while the log holds entries (the span recorder hands those to
the log: the live counters lack the entries before them).

:meth:`ChargeLog.flush` lands the whole log.  Each counter field lands
with one ``np.add.at``, which is unbuffered and applies additions in
index-array order, so every rank receives the IEEE-754 additions of the
per-call path and the cost report is byte-identical
(``tests/scalar_oracle.py`` loops over the same entries in the same
order).  The span recorder and the metrics collector take every ordering
point in one call each, with the counter state the per-call stream had
there: exact per-rank running sums of the log's entries, seeded with the
live store (:func:`_states`).  ``tests/replay_oracle.py`` keeps the
per-point flush (land up to each point, fire its hook) that this
reproduces bit for bit.  The machine then verifies once; a plain machine
records no points and skips the observers.

Fault injection draws at barriers and raises mid-stage, so a
fault-injecting machine's log lands each append as soon as it is made,
draws at every barrier in program order, and lands nothing past a barrier
that raises.

:class:`KernelTape` memoizes what the parallel kernels (``rect_qr``,
``carma_matmul``) charge, for the two stages that do their numerics
locally: full-to-band (one rect-QR and four CARMA products per panel) and
band-to-band (both per chase step).  A kernel's charges depend only on
operand shapes, the size of the executing group and its charging keyword
arguments — never on operand values, cache state or which ranks execute —
so one recording per such key serves every machine and group.  A tape
records the kernel's schedule (its charges walked on the operand shapes,
no numerics) on the world group of a scratch machine of the group's size
whose counter store, span recorder and metrics collector are one
:class:`_Recorder`, the log's own format; each executing group replays it
relabeled (:meth:`FlatTape.relabel`), and :meth:`ChargeLog.replay` only
appends the tape's columns and its points, shifted.
"""

from __future__ import annotations

import inspect
from functools import lru_cache, partialmethod
from typing import Any, Callable

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import Pattern, all_to_all, pairs
from repro.metrics.collector import comm_block
from repro.trace.spans import SPAN_FIELDS, STATE_FIELDS
from repro.util.lru import ByteLRU

#: a log's counter fields, in the order an ordering point records their ends
_FIELDS = ("flops", "sent", "recv", "mem", "ss", "note")
_FLOPS, _SENT, _RECV, _MEM, _SS, _NOTE = range(len(_FIELDS))

#: what a flush names when an entry is negative, per field
_LABELS = ("flops", "sent words", "received words", "words", "superstep count", "memory words")

#: ordering-point kinds (span points first); a point's row is its kind and
#: the six field ends
_OPEN, _CLOSE, _SUPERSTEP, _COMM = range(4)
_ROW = 1 + len(_FIELDS)

#: counter-state words a flush lays out at once (a segment of its points)
_SEGMENT_WORDS = 1 << 17

#: ``ndarray.min`` / ``max`` without their Python wrappers (a log checks
#: every field it lands)
_min, _max = np.minimum.reduce, np.maximum.reduce

#: one buffered charge: (rank indices, per-index amounts)
_Event = tuple[np.ndarray, np.ndarray]


def _ranks(ranks: Any) -> Any:
    """A rank spec as a column takes it: an int, or an index array."""
    if isinstance(ranks, RankGroup):
        return ranks.indices()
    if isinstance(ranks, (int, np.integer)):
        return int(ranks)
    return np.asarray(ranks, dtype=np.int64)


class _Column:
    """A 1-D array appended to in program order: its chunks, joined on the
    first read after an append (a chunk is read, never written).  Scalar and
    list appends collect in one list, which becomes a chunk when an array
    is appended or the column is read."""

    __slots__ = ("dtype", "chunks", "scalars", "size")

    def __init__(self, dtype: type):
        self.dtype = dtype
        self.chunks: list[Any] = []
        self.scalars: list[Any] = []
        self.size = 0

    def extend(self, values: Any, count: int) -> None:
        if isinstance(values, np.ndarray) and values.ndim:
            if self.scalars:
                self._seal()
            self.chunks.append(values)
        elif isinstance(values, (list, tuple)):
            self.scalars.extend(values)
        else:
            self.scalars += [values] * count
        self.size += count

    def clear(self) -> None:
        """Empty the column (views already taken keep their arrays)."""
        self.chunks, self.scalars, self.size = [], [], 0

    def _seal(self) -> None:
        self.chunks.append(np.array(self.scalars, self.dtype))
        self.scalars = []

    def view(self) -> np.ndarray:
        if self.scalars:
            self._seal()
        if not self.chunks:
            return np.empty(0, self.dtype)
        if len(self.chunks) > 1 or self.chunks[0].dtype != self.dtype:
            self.chunks = [np.concatenate(self.chunks).astype(self.dtype, copy=False)]
        return self.chunks[0]


class _Recorder:
    """A charge stream in program order: per counter field, the (rank,
    amount) entries of every charge, one column each; and the ordering
    points at which an observer sees the stream — a row of the point's kind
    and every field's length there — each with its payload (a span's
    ``(name, group size, ranks)``, a comm charge's wire pattern, else
    ``None``).

    A :class:`ChargeLog` appends to one, and so does a span recorder while
    the log holds entries (:meth:`open` / :meth:`close`).  A
    :class:`KernelTape` installs one as the counter store and metrics
    collector of the scratch machine it records a kernel on, and as its
    span recorder's log; any other store call (the order-sensitive
    add/release memory pair) has no attribute to call.
    """

    enabled = True

    def __init__(self) -> None:
        self.columns = [(_Column(np.int64), _Column(np.int64 if f == _SS else np.float64))
                        for f in range(len(_FIELDS))]
        self.points = _Column(np.int64)
        self.payloads: list[Any] = []

    def add(self, field: int, idx: Any, amount: Any, unique: bool = True) -> None:
        ranks, amounts = self.columns[field]
        count = 1 if isinstance(idx, (int, np.integer)) else len(idx)
        ranks.extend(idx, count)
        amounts.extend(amount, count)

    def ends(self) -> list[int]:
        return [ranks.size for ranks, _ in self.columns]

    def point(self, kind: int, payload: Any = None) -> None:
        self.points.extend([kind, *self.ends()], _ROW)
        self.payloads.append(payload)

    def events(self) -> list[_Event]:
        return [(ranks.view(), amounts.view()) for ranks, amounts in self.columns]

    def clear(self) -> None:
        """Drop every entry, point and payload; the fields with entries
        start new chunk lists, so views taken before stay intact."""
        for ranks, amounts in self.columns:
            if ranks.size:
                ranks.clear()
                amounts.clear()
        self.points.clear()
        self.payloads = []

    # the counter-store calls of a recorded kernel (``unique`` changes nothing here)
    add_flops = partialmethod(add, _FLOPS)
    add_mem_traffic = partialmethod(add, _MEM)
    add_supersteps = partialmethod(add, _SS)
    note_memory = partialmethod(add, _NOTE)

    def add_comm(self, send_idx: Any = None, sent: Any = None, recv_idx: Any = None,
                 recvd: Any = None, unique: bool = True) -> None:
        if send_idx is not None:
            self.add(_SENT, send_idx, sent)
        if recv_idx is not None:
            self.add(_RECV, recv_idx, recvd)

    # the metrics hooks, and the span recorder's calls
    def on_comm(self, s_idx: Any, s_w: Any, r_idx: Any, r_w: Any, pattern: Pattern) -> None:
        self.point(_COMM, pattern)

    def on_superstep(self, store: Any) -> None:
        self.point(_SUPERSTEP)

    def open(self, name: str, group_size: int | None = None, ranks: tuple | None = None) -> None:
        self.point(_OPEN, (name, group_size, ranks))

    def close(self) -> None:
        self.point(_CLOSE)


class ChargeLog:
    """The charges of one stage, recorded in program order and landed by
    :meth:`flush` (see the module docstring).

    Method names mirror the :class:`BSPMachine` charging primitives.
    ``ranks`` is a :class:`RankGroup`, a single rank, or a raw ``int64``
    index array (repeats allowed) with per-index amounts.  Ranks and amounts
    are checked once per field when the log lands: a rank outside [0, p) or
    a negative amount raises :class:`ValueError`, and nothing lands.

    ``step=`` (an index array aligned with ``ranks``) appends a whole
    schedule at once: entry ``i`` belongs to program step ``step[i]``.
    Step-indexed appends land at :meth:`flush`, after the log's other
    entries, in (step, append) order.  The entries of one comm or superstep
    append that share a step form one charge (one set of messages; one
    barrier over those ranks, in entry order).
    """

    __slots__ = ("machine", "_rec", "_steps", "_observed")

    def __init__(self, machine: BSPMachine):
        self.machine = machine
        self._rec = _Recorder()
        # step-indexed appends: (point kind or None, steps, entries)
        self._steps: list[tuple[int | None, np.ndarray, tuple]] = []
        # spans, metrics and fault draws read the ordering points
        self._observed = machine.spans.enabled or machine.metrics.enabled or machine.faults.enabled

    def charge_flops(self, ranks: Any, amount: Any, *, step: Any = None) -> None:
        self._append(None, step, (_FLOPS, ranks, amount))

    def charge_comm(
        self, senders: Any, sent: Any, receivers: Any, recvd: Any, *, pattern: Pattern,
        step: Any = None,
    ) -> None:
        """Each of ``senders`` sends ``sent`` words, each of ``receivers``
        receives ``recvd``, over the wire ``pattern`` (see
        :meth:`BSPMachine.charge_comm`).  With ``step``, sender ``i`` and
        receiver ``i`` are one pair in step ``step[i]``, and ``pattern``
        must say so: it is :func:`~repro.bsp.pattern.pairs` of the entries."""
        if not isinstance(pattern, Pattern):
            raise TypeError(f"a comm charge names its wire pattern (repro.bsp.pattern), got {pattern!r}")
        if step is not None and pattern is not pairs(np.size(_ranks(senders))):
            raise ValueError("a step-indexed comm append pairs sender i with receiver i")
        self._append(_COMM, step, (_SENT, senders, sent), (_RECV, receivers, recvd), payload=pattern)

    def mem_stream(self, ranks: Any, words: Any, *, step: Any = None) -> None:
        self._append(None, step, (_MEM, ranks, words))

    def superstep(self, ranks: Any, count: Any = 1, *, step: Any = None) -> None:
        """End ``count`` supersteps on ``ranks``: one barrier over them, in
        entry order (per step, with ``step``)."""
        self._append(_SUPERSTEP, step, (_SS, ranks, count))

    def _append(self, kind: int | None, step: Any, *entries: tuple[int, Any, Any],
                payload: Any = None) -> None:
        """Record one append: each ``(field, ranks, amounts)`` of
        ``entries``, then its ordering point of ``kind`` (if any)."""
        if step is not None:
            self._steps.append((kind, np.asarray(step), entries))
            return
        for field, ranks, amount in entries:
            self._rec.add(field, _ranks(ranks), amount)
        if kind is not None and self._observed:
            self._rec.point(kind, payload)
        self._appended()

    def transfer(self, src: RankGroup, dst: RankGroup, words: float) -> None:
        """``src`` ships ``words`` words to ``dst`` in equal shares, one
        superstep over both groups (a band window fetch or write-back)."""
        self.charge_comm(src, words / src.size, dst, words / dst.size,
                         pattern=all_to_all(src.size, dst.size))
        self.superstep(np.fromiter(dict.fromkeys(src.ranks + dst.ranks), dtype=np.int64), 1)

    def replay(self, tape: "FlatTape") -> None:
        """Append a recorded kernel's charges (see :class:`KernelTape`): its
        columns, and its ordering points shifted past the log's entries."""
        rec = self._rec
        if self._observed and tape.points.size:
            rows = tape.points + np.array([0, *rec.ends()])
            rec.points.extend(rows.ravel(), rows.size)
            rec.payloads += tape.payloads
        for (ranks, amounts), event in zip(rec.columns, tape.events):
            if event is not None:
                ranks.extend(event[0], len(event[0]))
                amounts.extend(event[1], len(event[0]))
        self._appended()

    def _appended(self) -> None:
        """A fault-injecting machine lands each append at once; otherwise
        span opens and closes become this log's points until it lands."""
        machine = self.machine
        if machine.faults.enabled:
            self._land()
        elif machine.spans.enabled:
            machine.spans.log = self._rec

    def flush(self) -> None:
        """Land every entry and ordering point, clear the log, and let the
        machine re-check its cumulative invariants."""
        if self._steps:
            self._add_steps()
        self._land()
        self.machine.verify("flush")

    def _add_steps(self) -> None:
        """Append the step-indexed block after the log's other entries, in
        (step, append) order, with a comm point per (step, comm append) and
        a barrier per (step, superstep append)."""
        steps, self._steps = self._steps, []
        rec, width = self._rec, len(steps)
        base = rec.ends()
        parts: list[list[tuple[np.ndarray, _Event]]] = [[] for _ in _FIELDS]
        for a, (_kind, step, entries) in enumerate(steps):
            key = step.astype(np.int64) * width + a
            for field, ranks, amount in entries:
                idx = np.atleast_1d(_ranks(ranks))
                parts[field].append((key, (idx, np.broadcast_to(amount, idx.shape))))
        keys: dict[int, np.ndarray] = {}
        for field, chunks in enumerate(parts):
            if chunks:
                key = np.concatenate([k for k, _ in chunks])
                order = np.argsort(key, kind="stable")
                keys[field] = key[order]
                rec.add(field, np.concatenate([e[0] for _, e in chunks])[order],
                        np.concatenate([e[1] for _, e in chunks])[order])
        if not self._observed:
            return
        marked = [(a, kind, *np.unique(step, return_counts=True))
                  for a, (kind, step, _entries) in enumerate(steps) if kind is not None]
        if not marked:
            return
        point = np.concatenate([groups.astype(np.int64) * width + a for a, _kind, groups, _counts in marked])
        kinds = np.concatenate([np.full(groups.size, kind) for _a, kind, groups, _counts in marked])
        payloads = [pairs(c) if kind == _COMM else None
                    for _a, kind, _groups, counts in marked for c in counts.tolist()]
        order = np.argsort(point)
        point = point[order]
        rows = np.empty((point.size, _ROW), dtype=np.int64)
        rows[:, 0] = kinds[order]
        for field, end in enumerate(base):
            rows[:, 1 + field] = end + (np.searchsorted(keys[field], point, side="right")
                                        if field in keys else 0)
        rec.points.extend(rows.ravel(), rows.size)
        rec.payloads += [payloads[i] for i in order.tolist()]

    def _land(self) -> None:
        """Check and land the recorded entries and points, and clear them;
        on a fault-injecting machine draw at each barrier first.  A log
        holding nothing returns before building anything."""
        rec, machine = self._rec, self.machine
        if machine.spans.log is rec:
            machine.spans.log = None
        if not rec.points.size and not any(ranks.size for ranks, _ in rec.columns):
            return
        # observers may keep views of these columns: clearing starts new chunks
        events, points, payloads = rec.events(), rec.points.view().reshape(-1, _ROW), rec.payloads
        rec.clear()
        for (ranks, amounts), label in zip(events, _LABELS):
            if ranks.size:
                low, high = _min(ranks), _max(ranks)
                if low < 0 or high >= machine.p:
                    raise ValueError(f"rank {low if low < 0 else high} out of range [0, {machine.p})")
                if _min(amounts) < 0:
                    raise ValueError(f"{label} must be nonnegative")
        drawn = len(points)  # the points that land: all, unless a barrier raises
        try:
            if machine.faults.enabled:
                ranks, start = events[_SS][0], 0
                for drawn, (kind, *ends) in enumerate(points.tolist(), 1):
                    if kind == _SUPERSTEP:
                        machine.faults.at_barrier(ranks[start : ends[_SS]].tolist())
                        start = ends[_SS]
                drawn = len(points)
        finally:
            if drawn < len(points):  # nothing past the barrier that raised lands
                ends = points[drawn - 1, 1:].tolist()
                events = [(r[:end], a[:end]) for (r, a), end in zip(events, ends)]
            _apply(machine, events, points[:drawn], payloads[:drawn])


def _add(store: Any, events: list[_Event]) -> None:
    """Add each field's entries to the store: one unbuffered, ordered
    ``np.add.at`` (``np.maximum.at`` for memory notes) per field."""
    flops, sent, recv, mem, ss, note = events
    if sent[0].size or recv[0].size:
        store.add_comm(*sent, *recv, unique=False)
    adders = (store.add_flops, store.add_mem_traffic, store.add_supersteps, store.note_memory)
    for add, (idx, amount) in zip(adders, (flops, mem, ss, note)):
        if idx.size:
            add(idx, amount, unique=False)


def _apply(machine: BSPMachine, events: list[_Event], points: np.ndarray, payloads: list) -> None:
    """Add ``events`` to the machine's store, and hand its span recorder and
    metrics collector the ordering ``points`` with the counter state at
    each, a segment of points at a time (each segment's states are exact
    running sums from the store as the previous segment left it)."""
    store, spans, metrics = machine.counters, machine.spans, machine.metrics
    if not len(points):
        _add(store, events)
        return
    kinds = points[:, 0]
    # span points take a state when spans are on, barriers when metrics are
    wanted = np.nonzero(np.array([spans.enabled, spans.enabled, metrics.enabled, False])[kinds])[0]
    comms = None
    if metrics.enabled:
        at = np.flatnonzero(kinds == _COMM)
        if at.size:
            ends = points[at][:, [1 + _SENT, 1 + _RECV]]
            sides = [(ranks[:end], words[:end]) for (ranks, words), end in
                     zip((events[_SENT], events[_RECV]), ends[-1].tolist())]
            comms = comm_block(*sides, np.vstack([[0, 0], ends[:-1]]), [payloads[i] for i in at.tolist()])
    segment = max(1, _SEGMENT_WORDS // (machine.p * len(STATE_FIELDS)))
    landed = [0] * len(_FIELDS)
    for lo in range(0, wanted.size, segment):
        at = wanted[lo : lo + segment]
        ends = points[at, 1:] - landed
        part = [(r[s : s + e], a[s : s + e]) for (r, a), s, e in zip(events, landed, ends[-1].tolist())]
        is_span = kinds[at] != _SUPERSTEP
        barriers, span_points = _states(store, part, machine.p, ends[~is_span], ends[is_span])
        _add(store, part)
        if metrics.enabled:
            metrics.on_replay(comms, barriers)
            comms = None
        if spans.enabled:
            spans.replay([payloads[i] for i in at[is_span].tolist()], span_points[: len(SPAN_FIELDS)])
        landed = [s + e for s, e in zip(landed, ends[-1].tolist())]
    _add(store, [(r[s:], a[s:]) for (r, a), s in zip(events, landed)])
    if comms is not None:
        metrics.on_replay(comms, np.empty((len(STATE_FIELDS), machine.p, 0)))


def _states(store: Any, events: list[_Event], p: int, *point_ends: np.ndarray) -> list[np.ndarray]:
    """The counter state at each point of each ``ends`` of ``point_ends``
    (``ends[k, field]``: how many of each field's ``events`` point ``k``
    sees), as ``(field, rank, point)`` over :data:`STATE_FIELDS`, with
    ``store`` holding the state before ``events``.

    A rank's state at a point is its live value followed by its entries
    before the point, added in program order.  ``acc`` holds one column per
    (field, rank) the events touch: the live value, its entries from row 1
    on, then padding, run through ``np.add.accumulate``
    (``np.maximum.accumulate`` for memory notes) — the very IEEE additions
    ``np.add.at`` makes.  Row ``c`` of a column holds from the point that
    sees entry ``c`` to the one that sees entry ``c + 1`` (``bounds``), so
    one ``np.repeat`` lays out every point's state.
    """
    present = [(f, event) for f, event in enumerate(events) if event[0].size]
    column = np.concatenate([f * p + event[0] for f, event in present] or [np.empty(0, np.int64)])
    # one stable sort groups the entries by column (a radix sort on 16-bit keys)
    order = np.argsort(column.astype(np.uint16 if len(STATE_FIELDS) * p <= 1 << 16 else np.int64), kind="stable")
    ordered = column[order]
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    group = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    cols = ordered[starts]
    slot, row = np.empty_like(column), np.empty_like(column)
    slot[order] = group
    row[order] = np.arange(ordered.size) - starts[group] + 1
    notes = int(np.searchsorted(cols, _NOTE * p))
    live = np.array([store.field_array(f) for f in STATE_FIELDS], dtype=np.float64)
    width = int(row.max(initial=0)) + 1
    acc = np.zeros((width, cols.size))
    acc[0] = live.ravel()[cols]
    acc[row, slot] = np.concatenate([event[1] for _, event in present] or [[]])
    np.add.accumulate(acc[:, :notes], axis=0, out=acc[:, :notes])
    np.maximum.accumulate(acc[:, notes:], axis=0, out=acc[:, notes:])
    acc = acc.T.ravel()
    untouched = np.setdiff1d(np.arange(live.size), cols, assume_unique=True)
    out = []
    for ends in point_ends:
        count = len(ends)
        first = [np.searchsorted(ends[:, f], np.arange(event[0].size), side="right") for f, event in present]
        bounds = np.full((cols.size, width + 1), count, dtype=np.intp)
        bounds[:, 0] = 0
        bounds[slot, row] = np.concatenate(first or [np.empty(0, np.intp)])
        states = np.empty((len(STATE_FIELDS), p, count))
        columns = states.reshape(live.size, count)  # column f·p + r is (field f, rank r)
        columns[untouched] = live.ravel()[untouched, None]
        columns[cols] = np.repeat(acc, np.diff(bounds, axis=1).ravel()).reshape(cols.size, count)
        out.append(states)
    return out


#: bytes one payload of an ordering point retains (a span's name and group
#: tuple, or a reference to a comm charge's memoised wire pattern)
_PAYLOAD_OVERHEAD = 100


def _narrow(a: np.ndarray) -> np.ndarray:
    """Nonnegative integers in the smallest dtype that holds them (a copy)."""
    return a.astype(np.min_scalar_type(int(a.max()))) if a.size else a.copy()


class FlatTape:
    """One recorded kernel call: per counter field, its (rank, amount)
    entries in program order (``None`` if it has none), rank indices in the
    smallest integer dtype that holds them; and its ordering points, one
    row each (kind, the six field ends), with their payloads."""

    __slots__ = ("events", "points", "payloads")

    def __init__(self, events: list[_Event | None], points: np.ndarray, payloads: list):
        self.events, self.points, self.payloads = events, points, payloads

    @classmethod
    def of(cls, rec: _Recorder) -> "FlatTape":
        events = [(_narrow(ranks), amounts.copy()) if ranks.size else None for ranks, amounts in rec.events()]
        return cls(events, _narrow(rec.points.view()).reshape(-1, _ROW), rec.payloads)

    def relabel(self, group: RankGroup) -> "FlatTape":
        """This tape, recorded on ranks ``0 … g−1``, as ``group`` charges
        it: each rank column and span-open rank tuple mapped through the
        group's ranks (wire patterns are in entry space).  The amounts and
        points are this tape's own arrays."""
        idx, ranks = group.indices(), group.ranks
        events = [None if e is None else (_narrow(idx[e[0]]), e[1]) for e in self.events]
        payloads = [(p[0], p[1], tuple([ranks[r] for r in p[2]])) if isinstance(p, tuple) and p[2] else p
                    for p in self.payloads]
        return FlatTape(events, self.points, payloads)

    @property
    def nbytes(self) -> int:
        """Bytes this tape retains: its field arrays, ordering points and
        their payloads."""
        ranks = sum(event[0].nbytes for event in self.events if event is not None)
        return ranks + self.shared_nbytes + _PAYLOAD_OVERHEAD * len(self.payloads)

    @property
    def shared_nbytes(self) -> int:
        """Bytes of the amount arrays and ordering points, which every
        relabeled copy of this tape shares."""
        return sum(event[1].nbytes for event in self.events if event is not None) + self.points.nbytes


def _record(schedule: Callable[..., object], params: Any, size: int, shapes: tuple,
            kwargs: dict) -> FlatTape:
    """Run ``schedule(scratch, scratch.world, *shapes, **kwargs)`` (a
    kernel's schedule on operand shapes, or the kernel itself on its
    operands) on a ``size``-rank scratch machine whose counter store,
    metrics collector and span recorder's log are one recorder."""
    scratch: Any = BSPMachine(size, params=params, spans=True)
    rec = _Recorder()
    scratch.counters = scratch.metrics = scratch.spans.log = rec
    schedule(scratch, scratch.world, *shapes, **kwargs)
    return FlatTape.of(rec)


@lru_cache(maxsize=256)
def _schedule(kernel: Callable[..., object]) -> tuple[Any, Callable[..., object] | None]:
    """``kernel``'s tape-key part and its charge walk on operand shapes:
    the name of the kernel under its ``functools.wraps`` layers and that
    kernel's schedule, or the kernel object itself and None for a kernel
    with no known schedule."""
    from repro.blocks.matmul import carma_matmul, carma_schedule  # late import: the blocks import bsp
    from repro.blocks.rect_qr import rect_qr, rect_qr_schedule

    inner = inspect.unwrap(kernel)
    # the table's kernels unwrapped too: a tracer may have rebound their names
    table = {inspect.unwrap(carma_matmul): carma_schedule, inspect.unwrap(rect_qr): rect_qr_schedule}
    schedule = table.get(inner)
    return (inner.__name__, schedule) if schedule else (kernel, None)


#: byte cap of the process-wide tape cache (least recently used tapes are
#: evicted and re-recorded on their next use).  Full-to-band and band-to-band
#: tapes declare 5.7 MiB after an n = 512, p = 256 solve, observed or not
#: (70 recordings and 366 relabeled copies, which declare only their rank
#: columns and payloads), so after a warm-up op everything replays; an
#: ``EigenService`` process that keeps meeting new shapes stops growing here.
_TAPE_CACHE_BYTES = 64 << 20

# Recorded tapes are reusable across KernelTape instances (and hence across
# stages and solves).  A kernel's charges depend on the machine parameters,
# the kernel, its operand shapes, the size of its group and every keyword
# argument but ``tag``: one tape per such key is recorded on the group's
# ranks 0 … g−1, and each exact rank tuple replays a relabeled copy, cached
# under the key with the tuple in place of the size.
_TAPE_CACHE = ByteLRU(_TAPE_CACHE_BYTES)


class KernelTape:
    """Shape-keyed memo of kernel charge streams, replayed into a ChargeLog."""

    def __init__(self, log: ChargeLog):
        self.log = log
        self._params = repr(log.machine.params)

    def run(self, kernel: Callable[..., object], group: RankGroup, operands: tuple, **kwargs: Any) -> None:
        """Charge ``kernel(machine, group, *operands, **kwargs)`` to the log.

        ``kernel`` is ``rect_qr`` or ``carma_matmul``; its result is not
        used — the caller does the numerics directly.  ``kwargs`` go to the
        kernel (``charge_redistribution`` defaults to False: the operands
        are already in the kernel's layout) and, all but ``tag`` (a label
        no charge reads), into the tape's key: ``rect_qr``'s ``delta`` and
        ``charge_redistribution`` change what it charges.  A tape is
        recorded from the kernel's schedule (its charges walked on the
        operand shapes, no numerics).  Under fault injection the real kernel
        runs on the real operands, so drop / corrupt / ABFT sites and the
        seeded RNG stream are untouched.
        """
        kwargs = {"charge_redistribution": False, **kwargs}
        if self.log.machine.faults.enabled:
            kernel(self.log.machine, group, *operands, **kwargs)
        else:
            self.log.replay(self._tape(kernel, group, operands, **kwargs))

    def _tape(self, kernel: Callable[..., object], group: RankGroup, operands: tuple,
              **kwargs: Any) -> FlatTape:
        """The cached tape of ``kernel``'s charges on ``group``; on a miss
        the group-relative tape, relabeled (and recorded first on its miss).
        A kernel with no known schedule (a wrapper that does not expose the
        kernel it calls) is recorded by running it on the operands, and its
        tapes are keyed by the kernel object."""
        kwargs.pop("tag", None)
        name, schedule = _schedule(kernel)
        shapes = tuple([a.shape for a in operands])
        head = (self._params, name, shapes)
        charging = tuple(sorted(kwargs.items()))
        tape = _TAPE_CACHE.get((*head, group.ranks, charging))
        if tape is None:
            base = _TAPE_CACHE.get((*head, group.size, charging))
            if base is None:
                args = shapes if schedule else operands
                base = _record(schedule or kernel, self.log.machine.params, group.size, args, kwargs)
                _TAPE_CACHE.put((*head, group.size, charging), base, base.nbytes)
            tape = base.relabel(group)
            _TAPE_CACHE.put((*head, group.ranks, charging), tape, tape.nbytes - tape.shared_nbytes)
        return tape
