"""One charge vocabulary, two flush modes: ChargeLog and kernel tapes.

The bulge-chase stages (:func:`repro.eig.band_to_band.band_to_band_2p5d`
and CA-SBR, :mod:`repro.eig.ca_sbr`) are written once against a
:class:`ChargeLog`; the *log* decides how their charges land:

**deferred** (no observer needs program order — :func:`needs_program_order`)
    Appends are buffered and :meth:`ChargeLog.flush` replays each counter
    field with one ``np.add.at``.  ``np.add.at`` is unbuffered and applies
    additions in index-array order, so every rank receives the identical
    sequence of IEEE-754 additions the immediate path performs — the cost
    report is byte-identical (``tests/scalar_oracle.py`` loops over the
    same event arrays in the same order).  Superstep counts
    are integers and memory notes running maxima, so batching those is
    trivially exact.

**write-through** (spans, metrics or fault injection is live)
    Every append is applied at once through the machine's own charging
    primitives, so each observer's hooks fire in program order; a
    step-indexed append (a whole schedule keyed by program step, as CA-SBR
    emits it) is held until the flush and issued step by step.

:class:`KernelTape` memoizes what the parallel kernels (``rect_qr``,
``carma_matmul``) charge, for the two stages that do their numerics
locally: full-to-band (:mod:`repro.eig.full_to_band`: one rect-QR and four
CARMA products per panel) and band-to-band (both per chase step).  A
kernel's charges depend only on operand shapes, the executing group and
its charging keyword arguments — never on operand values or cache state —
so one recording per such key serves every machine.  A tape is
recorded at the *hook boundary* of a scratch machine: per counter field,
the (rank, amount) entries of every counter-store call in program order
(one growing buffer each, rank indices narrowed to the smallest integer
dtype), and — only when a write-through log asked for it — the *ordering
points* at which a metrics hook or a span open/close saw the stream.  A
deferred replay appends the fields.  A write-through replay is bulk too:
each field lands once, and the span recorder and the metrics collector
take every ordering point in one call each, with the counter state the
live stream had there — exact per-rank running sums of the tape's entries
seeded with the live store (:class:`_ReplayPlan`).  ``tests/replay_oracle.py``
keeps the per-point replay (land up to each point, fire its hook) that it
reproduces bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import Pattern, all_to_all, pairs
from repro.metrics.collector import comm_block
from repro.trace.spans import SPAN_FIELDS, STATE_FIELDS, SpanHandle
from repro.util.lru import ByteLRU

#: one buffered charge: (rank indices, per-index amounts)
_Event = tuple[np.ndarray, np.ndarray]

#: one step-indexed append: (kind, step of each entry, its events)
_Step = tuple[str, np.ndarray, tuple[_Event, ...]]


def needs_program_order(machine: BSPMachine) -> bool:
    """True iff an observer of ``machine`` must see each charge as it happens.

    Span attribution, per-rank metrics and fault injection all hook
    individual charging calls.  Cumulative-state checks
    (:meth:`BSPMachine.verify`) do not: they run at the end of a flush.
    Only the log asks: a stage writes each charge once, to a ChargeLog.
    """
    return machine.spans.enabled or machine.metrics.enabled or machine.faults.enabled


def _as_idx(ranks: Any) -> np.ndarray:
    if isinstance(ranks, RankGroup):
        return ranks.indices()
    if isinstance(ranks, (int, np.integer)):
        return np.array([int(ranks)], dtype=np.int64)
    return np.asarray(ranks, dtype=np.int64)


def _event(ranks: Any, amount: Any, dtype: type = np.float64) -> _Event:
    idx = _as_idx(ranks)
    if np.ndim(amount) == 0:
        return idx, np.full(idx.size, amount, dtype=dtype)
    return idx, np.asarray(amount, dtype=dtype)


def _concat(events: list[_Event]) -> _Event | None:
    if not events:
        return None
    if len(events) == 1:
        return events[0]
    return (
        np.concatenate([e[0] for e in events]),
        np.concatenate([e[1] for e in events]),
    )


def _nonneg(event: _Event | None, label: str) -> _Event | None:
    if event is not None and event[1].size and event[1].min() < 0:
        raise ValueError(f"{label} must be nonnegative")
    return event


def _land(counters: Any, flops: _Event | None, sent: _Event | None, recv: _Event | None,
          mem: _Event | None, ss: _Event | None, note: _Event | None) -> None:
    """Add each counter field's events to the store: one unbuffered,
    ordered ``np.add.at`` (``np.maximum.at`` for memory notes) per field."""
    if flops is not None:
        counters.add_flops(*flops, unique=False)
    if sent is not None or recv is not None:
        counters.add_comm(*(sent or (None, None)), *(recv or (None, None)), unique=False)
    if mem is not None:
        counters.add_mem_traffic(*mem, unique=False)
    if ss is not None:
        counters.add_supersteps(*ss, unique=False)
    if note is not None:
        counters.note_memory(*note, unique=False)


def _barriers(machine: BSPMachine, ranks: np.ndarray, counts: np.ndarray) -> None:
    """End ``counts[i]`` supersteps on ``ranks[i]``: one barrier per distinct
    count, over its ranks in entry order (a repeated rank counts again)."""
    for count in dict.fromkeys(counts.tolist()):
        machine.superstep(ranks[counts == count].tolist(), count)


class ChargeLog:
    """Ordered charge events of one stage, deferred or written through.

    Method names mirror the :class:`BSPMachine` charging primitives.
    ``ranks`` is a :class:`RankGroup`, a single rank, or a raw ``int64``
    index array (repeats allowed) with per-index amounts; either flush mode
    charges every form identically (on a deferred log, bounds are the
    caller's responsibility).

    ``step=`` (an index array aligned with ``ranks``) appends a whole
    schedule at once: entry ``i`` belongs to program step ``step[i]``.
    Step-indexed appends land at :meth:`flush` in (step, append) order — a
    deferred log adds them as one more ordered block per counter field; a
    write-through log issues them one (step, append) at a time through the
    machine's primitives, so every observer sees per-step program order.
    The entries of one comm or superstep append that share a step form one
    call (one set of messages; one barrier over those ranks, in entry order).
    """

    __slots__ = ("machine", "deferred", "_flops", "_sent", "_recv", "_mem", "_ss", "_note", "_steps")

    def __init__(self, machine: BSPMachine):
        self.machine = machine
        self.deferred = not needs_program_order(machine)
        self._flops: list[_Event] = []
        self._sent: list[_Event] = []
        self._recv: list[_Event] = []
        self._mem: list[_Event] = []
        self._ss: list[_Event] = []
        self._note: list[_Event] = []
        self._steps: list[_Step] = []

    def charge_flops(self, ranks: Any, amount: Any, *, step: Any = None) -> None:
        if step is not None:
            self._steps.append(("flops", np.asarray(step), (_event(ranks, amount),)))
        elif self.deferred:
            self._flops.append(_event(ranks, amount))
        elif np.ndim(amount):
            self.machine.charge_flops_batch(ranks, amount)
        else:
            self.machine.charge_flops(ranks, amount)

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
        if step is not None:
            events = (_event(senders, sent), _event(receivers, recvd))
            if pattern is not pairs(events[0][0].size):
                raise ValueError("a step-indexed comm append pairs sender i with receiver i")
            self._steps.append(("comm", np.asarray(step), events))
        elif self.deferred:
            self._sent.append(_event(senders, sent))
            self._recv.append(_event(receivers, recvd))
        else:
            self.machine.charge_comm(senders, sent, receivers, recvd, pattern=pattern)

    def mem_stream(self, ranks: Any, words: Any, *, step: Any = None) -> None:
        if step is not None:
            self._steps.append(("mem", np.asarray(step), (_event(ranks, words),)))
        elif self.deferred:
            self._mem.append(_event(ranks, words))
        else:
            self.machine.mem_stream_group(ranks, words)

    def superstep(self, ranks: Any, count: int = 1, *, step: Any = None) -> None:
        if step is not None:
            self._steps.append(("ss", np.asarray(step), (_event(ranks, count, np.int64),)))
        elif self.deferred:
            self._ss.append(_event(ranks, count, np.int64))
        elif np.ndim(count):
            _barriers(self.machine, *_event(ranks, count, np.int64))
        else:
            self.machine.superstep(ranks, count)

    def transfer(self, src: RankGroup, dst: RankGroup, words: float) -> None:
        """``src`` ships ``words`` words to ``dst`` in equal shares, one
        superstep over both groups (a band window fetch or write-back)."""
        self.charge_comm(src, words / src.size, dst, words / dst.size,
                         pattern=all_to_all(src.size, dst.size))
        if self.deferred:
            self._ss.append(_event(np.union1d(src.indices(), dst.indices()), 1, np.int64))
        else:
            self.machine.superstep(RankGroup(tuple(dict.fromkeys(src.ranks + dst.ranks))), 1)

    def replay(self, tape: "FlatTape") -> None:
        """Append a recorded kernel's charges (see :class:`KernelTape`).

        Deferred: each field joins the pending events.  Write-through: each
        field lands at once, as a flush lands it; the observers take the
        ordering points in one call each, with the states the live stream
        had there (:meth:`_ReplayPlan.states`); the machine verifies once."""
        if self.deferred:
            for name, pending in zip(_FIELDS, (self._flops, self._sent, self._recv,
                                               self._mem, self._ss, self._note)):
                event = getattr(tape, name)
                if event is not None:
                    pending.append(event)
            return
        plan = tape.plan
        if plan is None:
            raise RuntimeError("tape was recorded for a deferred log; it kept no ordering points")
        machine = self.machine
        spans, metrics = machine.spans.enabled, machine.metrics.enabled
        at_spans, at_samples = plan.states(machine.counters, spans, metrics)
        _land(machine.counters, *(getattr(tape, name) for name in _FIELDS))
        if metrics:
            machine.metrics.on_replay(plan.comms, at_samples)
        if spans:
            machine.spans.replay(plan.marks, at_spans[:, : len(SPAN_FIELDS)])
        machine.verify("kernel tape replay")

    def _defer_steps(self, steps: list[_Step]) -> None:
        """Buffer the step-indexed appends after the other events of their
        field, stably ordered by step."""
        fields: dict[str, tuple[list[_Event], ...]] = {
            "flops": (self._flops,), "comm": (self._sent, self._recv),
            "mem": (self._mem,), "ss": (self._ss,),
        }
        for kind, targets in fields.items():
            mine = [(keys, events) for k, keys, events in steps if k == kind]
            if not mine:
                continue
            order = np.argsort(np.concatenate([keys for keys, _ in mine]), kind="stable")
            for j, target in enumerate(targets):
                idx = np.concatenate([events[j][0] for _, events in mine])
                amount = np.concatenate([events[j][1] for _, events in mine])
                target.append((idx[order], amount[order]))

    def _write_steps(self, steps: list[_Step]) -> None:
        """Issue the step-indexed appends through the machine, one
        (step, append) at a time, each entry charged as the deferred flush
        would (repeated ranks accumulate)."""
        calls = []
        for a, (kind, keys, events) in enumerate(steps):
            entries: dict[int, list[int]] = {}
            for i, s in enumerate(keys.tolist()):
                entries.setdefault(s, []).append(i)
            calls += [(s, a, kind, events, np.array(at)) for s, at in entries.items()]
        machine = self.machine
        for _s, _a, kind, events, at in sorted(calls, key=lambda call: call[:2]):
            (ranks, amount), *rest = events
            if kind == "flops":
                for r, f in zip(ranks[at].tolist(), amount[at].tolist()):
                    machine.charge_flops(r, f)
            elif kind == "mem":
                for r, w in zip(ranks[at].tolist(), amount[at].tolist()):
                    machine.mem_stream(r, w)
            elif kind == "comm":
                (receivers, recvd), = rest
                machine.charge_comm(ranks[at], amount[at], receivers[at], recvd[at],
                                    pattern=pairs(at.size))
            else:
                _barriers(machine, ranks[at], amount[at])

    def flush(self) -> None:
        """Apply all buffered events, clear the log, and let the machine
        re-check its cumulative invariants.

        Step-indexed appends land after the log's other events.  Deferred:
        one ``np.add.at`` per counter field, per-rank addition order equal
        to append order (step order within the step-indexed block).  A
        write-through log has only its step-indexed appends to issue.
        """
        steps, self._steps = self._steps, []
        if steps:
            (self._defer_steps if self.deferred else self._write_steps)(steps)
        _land(
            self.machine.counters,
            _nonneg(_concat(self._flops), "flops"),
            _nonneg(_concat(self._sent), "sent words"),
            _nonneg(_concat(self._recv), "received words"),
            _nonneg(_concat(self._mem), "words"),
            _concat(self._ss),
            _concat(self._note),
        )
        for events in (self._flops, self._sent, self._recv, self._mem, self._ss, self._note):
            events.clear()
        self.machine.verify("flush")


#: a tape's counter fields, in the order its ordering points record their ends
_FIELDS = ("flops", "sent", "recv", "mem", "ss", "note")

#: ordering-point kinds of a write-through tape, and the width of a point's
#: row: its kind, the six field ends, and a comm charge's sent / recv start
_OPEN, _CLOSE, _SUPERSTEP, _COMM = range(4)
_ROW = 1 + len(_FIELDS) + 2

#: bytes one payload of an ordering point retains (a span's name and group
#: tuple, or a reference to a comm charge's memoised wire pattern)
_PAYLOAD_OVERHEAD = 100


def _narrow(a: np.ndarray) -> np.ndarray:
    """Nonnegative integers in the smallest dtype that holds them (a copy)."""
    return a.astype(np.min_scalar_type(int(a.max()))) if a.size else a.copy()


class _Column:
    """A growing 1-D array: appends land in program order, capacity doubles."""

    __slots__ = ("data", "size")

    def __init__(self, dtype: type):
        self.data = np.empty(64, dtype=dtype)
        self.size = 0

    def extend(self, values: Any, count: int) -> None:
        end = self.size + count
        if end > self.data.size:
            grown = np.empty(max(end, 2 * self.data.size), dtype=self.data.dtype)
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.data[self.size : end] = values
        self.size = end

    def view(self) -> np.ndarray:
        return self.data[: self.size]


class _StoreRecorder:
    """Counter store of the scratch machine a kernel is recorded on: each
    charge's (rank, amount) entries append, in program order, to their
    field's columns.  Any other store call (the order-sensitive add/release
    memory pair) cannot be taped."""

    def __init__(self) -> None:
        self.fields = {
            name: (_Column(np.int64), _Column(np.int64 if name == "ss" else np.float64))
            for name in _FIELDS
        }
        self.comm_start = (0, 0)  # sent / recv entries before the last add_comm

    def _append(self, name: str, idx: Any, amount: Any) -> None:
        ranks, amounts = self.fields[name]
        count = 1 if np.ndim(idx) == 0 else len(idx)
        ranks.extend(idx, count)
        amounts.extend(amount, count)

    def ends(self) -> list[int]:
        return [ranks.size for ranks, _ in self.fields.values()]

    def add_flops(self, idx: Any, amount: Any, unique: bool = True) -> None:
        self._append("flops", idx, amount)

    def add_comm(self, send_idx: Any = None, sent: Any = None, recv_idx: Any = None,
                 recvd: Any = None, unique: bool = True) -> None:
        self.comm_start = (self.fields["sent"][0].size, self.fields["recv"][0].size)
        if send_idx is not None:
            self._append("sent", send_idx, sent)
        if recv_idx is not None:
            self._append("recv", recv_idx, recvd)

    def add_supersteps(self, idx: Any, count: Any, unique: bool = True) -> None:
        self._append("ss", idx, count)

    def add_mem_traffic(self, idx: Any, words: Any, unique: bool = True) -> None:
        self._append("mem", idx, words)

    def note_memory(self, idx: Any, words_each: Any, unique: bool = True) -> None:
        self._append("note", idx, words_each)

    def __getattr__(self, method: str) -> Any:
        raise RuntimeError(f"taped kernels must not call {method}")


class _ObserverRecorder(SpanHandle):
    """Metrics collector and span recorder of the scratch machine, for a
    tape a write-through log replays: each call becomes an ordering point —
    its kind, the length of every counter field at that moment, and for a
    comm charge where its entries start — with the span name and group or
    the wire pattern kept aside."""

    enabled = True

    def __init__(self, store: _StoreRecorder):
        self.store = store
        self.points = _Column(np.int64)
        self.payloads: list[Any] = []

    def _point(self, kind: int, start: tuple[int, int] = (0, 0)) -> None:
        self.points.extend([kind, *self.store.ends(), *start], _ROW)

    def on_comm(self, s_idx: Any, s_w: Any, r_idx: Any, r_w: Any, pattern: Pattern) -> None:
        self._point(_COMM, self.store.comm_start)
        self.payloads.append(pattern)

    def on_superstep(self, store: Any) -> None:
        self._point(_SUPERSTEP)

    # the span recorder's ``handle`` returns a context manager: this object
    def handle(self, name: str, group: object = None) -> "_ObserverRecorder":
        self._point(_OPEN)
        self.payloads.append((name, group))
        return self

    def __exit__(self, *exc: object) -> bool:
        self._point(_CLOSE)
        return False


class FlatTape:
    """One recorded kernel call: per counter field, its (rank, amount)
    entries in program order, rank indices in the smallest integer dtype
    that holds them; plus, for a write-through replay, the ordering points
    at which an observer saw the call stream.

    ``points`` is ``None`` on a tape recorded for a deferred log (it only
    appends the fields), else one row per observer call: ``(kind, ends of
    the six fields, sent / recv start of a comm charge)``, with the span
    names and groups and the wire patterns in ``payloads``; ``plan`` is
    what a bulk replay derives from them.
    """

    __slots__ = ("flops", "sent", "recv", "mem", "ss", "note", "points", "payloads", "plan")

    flops: _Event | None
    sent: _Event | None
    recv: _Event | None
    mem: _Event | None
    ss: _Event | None
    note: _Event | None

    def __init__(self, store: _StoreRecorder, observer: _ObserverRecorder | None, p: int):
        for name, (ranks, amounts) in store.fields.items():
            event = None
            if ranks.size:
                event = (_narrow(ranks.view()), amounts.view().copy())
            setattr(self, name, event)
        self.points: np.ndarray | None = None
        self.payloads: list[Any] = []
        self.plan: _ReplayPlan | None = None
        if observer is not None:
            self.points = _narrow(observer.points.view()).reshape(-1, _ROW)
            self.payloads = observer.payloads
            self.plan = _ReplayPlan(self, p)

    @property
    def nbytes(self) -> int:
        """Bytes this tape retains: its field arrays, ordering points, their
        payloads and its replay plan."""
        events = [getattr(self, name) for name in _FIELDS]
        total = sum(a.nbytes for event in events if event is not None for a in event)
        if self.plan is not None:
            total += self.points.nbytes + _PAYLOAD_OVERHEAD * len(self.payloads) + self.plan.nbytes
        return total


class _ReplayPlan:
    """A write-through tape's ordering points, prepared for bulk replay.

    A rank's counter state at a point is its live value followed by its
    entries before the point, added in program order.  ``template`` holds
    one column per (field, rank) the tape touches: its entries from row 1
    on, then +0.0 padding.  :meth:`states` seeds row 0 with the live store
    and runs ``np.add.accumulate`` down the columns (``np.maximum.accumulate``
    for memory notes): the very IEEE additions ``np.add.at`` makes.  Row
    ``c`` holds from the point that sees entry ``c`` for ``runs[u, c]``
    points (span points, then superstep samples in a second table), so one
    ``np.repeat`` lays out every point's state.  ``marks``: the span opens
    ``(name, group)`` and closes ``None``; ``comms``: the comm charges."""

    __slots__ = ("p", "rows", "dest", "template", "runs", "sizes", "notes", "marks", "comms")

    def __init__(self, tape: FlatTape, p: int):
        assert tape.points is not None
        points = tape.points.astype(np.intp)
        kinds = points[:, 0].tolist()
        payloads = iter(tape.payloads)
        items = [next(payloads) if kind in (_OPEN, _COMM) else None for kind in kinds]
        self.p = p
        self.marks = [item for item, kind in zip(items, kinds) if kind in (_OPEN, _CLOSE)]
        self.comms = comm_block(tape.sent, tape.recv, points[points[:, 0] == _COMM, -2:],
                                [item for item, kind in zip(items, kinds) if kind == _COMM])

        # every entry's column (field * p + rank) and its row in that column
        events = [(i, event) for i, event in enumerate(getattr(tape, f) for f in _FIELDS) if event]
        column = np.concatenate([i * p + event[0].astype(np.intp) for i, event in events]
                                or [np.empty(0, np.intp)])
        self.rows, slot = np.unique(column, return_inverse=True)
        order = np.argsort(slot, kind="stable")
        row = np.empty_like(slot)
        row[order] = np.arange(slot.size) - np.searchsorted(slot[order], slot[order]) + 1
        self.notes = int(np.searchsorted(self.rows, (len(_FIELDS) - 1) * p))
        self.dest = self.rows % p * len(_FIELDS) + self.rows // p  # its (rank, field) slot
        width = int(row.max(initial=0)) + 1
        self.template = np.zeros((width, self.rows.size))
        self.template[row, slot] = np.concatenate([event[1] for _, event in events] or [[]])
        self.runs, self.sizes = [], []
        for at in (np.isin(points[:, 0], (_OPEN, _CLOSE)), points[:, 0] == _SUPERSTEP):
            ends = points[at, 1 : 1 + len(_FIELDS)]
            first = [np.searchsorted(ends[:, i], np.arange(len(event[0])), side="right")
                     for i, event in events]
            bounds = np.full((self.rows.size, width + 1), len(ends), dtype=np.intp)
            bounds[:, 0] = 0
            bounds[slot, row] = np.concatenate(first or [[]])
            self.runs.append(_narrow(np.diff(bounds, axis=1)))
            self.sizes.append(len(ends))

    @property
    def nbytes(self) -> int:
        block = sum(a.nbytes for side in self.comms or () for a in side)
        return 2 * self.rows.nbytes + self.template.nbytes + sum(r.nbytes for r in self.runs) + block

    def states(self, store: Any, *wanted: bool) -> list[np.ndarray | None]:
        """The counter state at the span points and at the superstep
        samples (those ``wanted``), each ``(rank, field, point)`` over
        :data:`STATE_FIELDS`, with ``store`` holding the state before the
        tape."""
        live = np.array([store.field_array(f) for f in STATE_FIELDS], dtype=np.float64)
        acc = self.template.copy()
        acc[0] = live.ravel()[self.rows]
        np.add.accumulate(acc[:, : self.notes], axis=0, out=acc[:, : self.notes])
        np.maximum.accumulate(acc[:, self.notes :], axis=0, out=acc[:, self.notes :])
        acc = acc.T.ravel()
        out: list[np.ndarray | None] = []
        for runs, count, want in zip(self.runs, self.sizes, wanted):
            if not want:
                out.append(None)
                continue
            states = np.empty((self.p, len(STATE_FIELDS), count))
            if self.dest.size < live.size:  # untouched ranks keep their live state
                states[:] = live.T[:, :, None]
            touched = np.repeat(acc, runs.ravel()).reshape(self.dest.size, count)
            states.reshape(live.size, count)[self.dest] = touched
            out.append(states)
        return out


#: byte cap of the process-wide tape cache (least recently used tapes are
#: evicted and re-recorded on their next use).  Full-to-band and band-to-band
#: tapes declare 2.5 MB after a plain n = 512, p = 256 solve and 23.3 MB after
#: an observed one, 19.4 MB of it replay plans, mostly comm blocks' pattern
#: cells (0.4 / 2.6 MB at n = 256, p = 64; a write-through tape also serves a
#: deferred log), so after a warm-up op everything replays; an
#: ``EigenService`` process that keeps meeting new shapes stops growing here.
_TAPE_CACHE_BYTES = 64 << 20

# Recorded tapes are reusable across KernelTape instances (and hence across
# stages and solves): the key pins everything a kernel's charges depend on —
# machine size and parameters, kernel, operand shapes, the executing group's
# exact rank tuple, and every keyword argument but ``tag``.
_TAPE_CACHE = ByteLRU(_TAPE_CACHE_BYTES)


class KernelTape:
    """Shape-keyed memo of kernel charge streams, replayed into a ChargeLog."""

    def __init__(self, log: ChargeLog):
        self.log = log
        self._scratch: BSPMachine | None = None
        self._key = (log.machine.p, repr(log.machine.params))

    def _record(self, kernel: Callable[..., object], *args: Any, **kwargs: Any) -> FlatTape:
        """Run ``kernel(scratch, *args, **kwargs)`` on a scratch machine whose
        counter store records; for a write-through log its metrics and
        span recorder record the ordering points as well."""
        machine = self.log.machine
        if self._scratch is None:
            self._scratch = BSPMachine(machine.p, params=machine.params)
        scratch: Any = self._scratch
        quiet = (scratch.spans, scratch.metrics)
        store = _StoreRecorder()
        observer = None if self.log.deferred else _ObserverRecorder(store)
        scratch.counters = store
        if observer is not None:
            scratch.spans = scratch.metrics = observer
        try:
            kernel(scratch, *args, **kwargs)
        finally:
            scratch.spans, scratch.metrics = quiet
        return FlatTape(store, observer, machine.p)

    def run(self, kernel: Callable[..., object], group: RankGroup, operands: tuple, **kwargs: Any) -> None:
        """Charge ``kernel(machine, group, *operands, **kwargs)`` to the log.

        ``kernel`` is ``rect_qr`` or ``carma_matmul``; its result is not
        used — the caller does the numerics directly.  ``kwargs`` go to the
        kernel (``charge_redistribution`` defaults to False: the operands
        are already in the kernel's layout) and, all but ``tag`` (a label
        no charge reads), into the tape's key: ``rect_qr``'s ``delta`` and
        ``charge_redistribution`` change what it charges.  Under fault
        injection the real kernel runs on the real operands, so drop /
        corrupt / ABFT sites and the seeded RNG stream are untouched.
        """
        kwargs = {"charge_redistribution": False, **kwargs}
        machine = self.log.machine
        if machine.faults.enabled:
            kernel(machine, group, *operands, **kwargs)
            return
        key = (self._key, kernel.__name__, tuple([a.shape for a in operands]), group.ranks,
               tuple(sorted((k, v) for k, v in kwargs.items() if k != "tag")))
        tape = _TAPE_CACHE.get(key)
        if tape is None or (tape.plan is None and not self.log.deferred):
            tape = self._record(kernel, group, *operands, **kwargs)
            _TAPE_CACHE.put(key, tape, tape.nbytes)
        self.log.replay(tape)
