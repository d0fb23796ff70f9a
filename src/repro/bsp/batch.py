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
``carma_matmul``) emit.  Their charges depend only on operand shapes and
the executing group — never on operand values or cache state — so one
recording per (kernel, shapes, group) serves every machine.  A tape is
recorded at the *hook boundary*: the ordered stream of counter-store calls,
``metrics.on_*`` calls (with their named wire patterns) and span
opens/closes the kernel makes on a scratch machine.  A write-through replay
re-issues that stream against the live machine; a deferred replay appends
its counter-store subset, pre-flattened to one array pair per field
(:class:`FlatTape`).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import Pattern, all_to_all, pairs
from repro.trace.spans import SpanHandle
from repro.util.lru import ByteLRU

#: one buffered charge: (rank indices, per-index amounts)
_Event = tuple[np.ndarray, np.ndarray]

#: one step-indexed append: (kind, step of each entry, its events)
_Step = tuple[str, np.ndarray, tuple[_Event, ...]]

#: bytes of the tuple and argument containers of one recorded hook event
#: (what a tape retains per event besides its array arguments)
_EVENT_OVERHEAD = 200


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


def _nonneg(event: _Event | None, label: str) -> _Event | tuple[None, None]:
    if event is None:
        return None, None
    if event[1].size and event[1].min() < 0:
        raise ValueError(f"{label} must be nonnegative")
    return event


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
        """Append a recorded kernel's charges (see :class:`KernelTape`)."""
        if self.deferred:
            if tape.flops is not None:
                self._flops.append(tape.flops)
            if tape.sent is not None:
                self._sent.append(tape.sent)
            if tape.recv is not None:
                self._recv.append(tape.recv)
            if tape.mem is not None:
                self._mem.append(tape.mem)
            if tape.ss is not None:
                self._ss.append(tape.ss)
            if tape.note is not None:
                self._note.append(tape.note)
            return
        if tape.events is None:
            raise RuntimeError("tape was recorded for a deferred log; it kept no hook events")
        machine = self.machine
        observers = {"counters": machine.counters}
        if machine.metrics.enabled:
            observers["metrics"] = machine.metrics
        open_spans: list[SpanHandle] = []
        for channel, method, args, kwargs in tape.events:
            if channel == "spans":  # through machine.span: a no-op handle when spans are off
                if method == "open":
                    open_spans.append(machine.span(*args).__enter__())
                else:
                    open_spans.pop().__exit__(None, None, None)
            elif channel in observers:
                if method == "on_superstep":  # its argument is the live store
                    args = (machine.counters,)
                getattr(observers[channel], method)(*args, **kwargs)

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
        counters = self.machine.counters
        flops = _nonneg(_concat(self._flops), "flops")
        sent = _nonneg(_concat(self._sent), "sent words")
        recv = _nonneg(_concat(self._recv), "received words")
        mem = _nonneg(_concat(self._mem), "words")
        steps = _concat(self._ss)
        note = _concat(self._note)
        if flops[0] is not None:
            counters.add_flops(*flops, unique=False)
        if sent[0] is not None or recv[0] is not None:
            counters.add_comm(*sent, *recv, unique=False)
        if mem[0] is not None:
            counters.add_mem_traffic(*mem, unique=False)
        if steps is not None:
            counters.add_supersteps(*steps, unique=False)
        if note is not None:
            counters.note_memory(*note, unique=False)
        for events in (self._flops, self._sent, self._recv, self._mem, self._ss, self._note):
            events.clear()
        self.machine.verify("flush")


#: counter-store method -> FlatTape field (anything else a kernel calls on
#: the store — the order-sensitive add/release memory pair — cannot be taped)
_STORE_FIELDS = {
    "add_flops": ("flops", np.float64),
    "add_mem_traffic": ("mem", np.float64),
    "add_supersteps": ("ss", np.int64),
    "note_memory": ("note", np.float64),
}


class FlatTape:
    """One recorded kernel call: its hook-level event stream, plus the
    counter-store subset flattened to one array pair per field.

    ``events`` holds ``(channel, method, args, kwargs)`` tuples in program
    order, ``channel`` naming the observer the call went to (``"counters"``,
    ``"metrics"``, ``"spans"``).  The flattened fields keep
    per-field order; cross-field interleaving carries no information for a
    deferred flush (each counter field accumulates independently).
    """

    __slots__ = ("events", "flops", "sent", "recv", "mem", "ss", "note")

    def __init__(self, events: list[tuple]):
        self.events: list[tuple] | None = events
        fields: dict[str, list[_Event]] = {name: [] for name in self.__slots__[1:]}
        for channel, method, args, _kwargs in events:
            if channel != "counters":
                continue
            if method == "add_comm":
                if args[0] is not None:
                    fields["sent"].append(_event(args[0], args[1]))
                if args[2] is not None:
                    fields["recv"].append(_event(args[2], args[3]))
            elif method in _STORE_FIELDS:
                name, dtype = _STORE_FIELDS[method]
                fields[name].append(_event(args[0], args[1], dtype))
            else:
                raise RuntimeError(f"taped kernels must not call {method}")
        self.flops = _concat(fields["flops"])
        self.sent = _concat(fields["sent"])
        self.recv = _concat(fields["recv"])
        self.mem = _concat(fields["mem"])
        self.ss = _concat(fields["ss"])
        self.note = _concat(fields["note"])

    @property
    def nbytes(self) -> int:
        """Bytes this tape retains: the flattened fields plus, while they
        are kept, the array arguments of the hook events."""
        total = 0
        for name in self.__slots__[1:]:
            field = getattr(self, name)
            if field is not None:
                total += field[0].nbytes + field[1].nbytes
        for _channel, _method, args, kwargs in self.events or ():
            total += _EVENT_OVERHEAD
            total += sum(a.nbytes for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))
        return total


class _HookRecorder(SpanHandle):
    """Stand-in for one observer of a scratch machine (counter store,
    metrics or spans): records every call made on it."""

    enabled = True

    def __init__(self, channel: str, events: list[tuple]):
        self._channel = channel
        self._events = events

    def __getattr__(self, method: str) -> Callable[..., None]:
        def record(*args: Any, **kwargs: Any) -> None:
            self._events.append((self._channel, method, args, kwargs))

        return record

    # the span recorder's ``handle`` returns a context manager: this object
    def handle(self, name: str, group: object = None) -> "_HookRecorder":
        self._events.append((self._channel, "open", (name, group), {}))
        return self

    def __exit__(self, *exc: object) -> bool:
        self._events.append((self._channel, "close", (), {}))
        return False


#: byte cap of the process-wide tape cache (least recently used tapes are
#: evicted and re-recorded on their next use).  The repo benchmark's solve
#: workloads hold < 2 MB of tapes each and an observed p = 256 solve ≈ 20 MB,
#: so after a warm-up op everything replays; an ``EigenService`` process that
#: keeps meeting new shapes stops growing here.
_TAPE_CACHE_BYTES = 64 << 20

# Recorded tapes are reusable across KernelTape instances (and hence across
# band-to-band stages and solves): the key pins everything a kernel's event
# stream depends on — machine size and parameters, kernel, operand shapes,
# and the executing group's exact rank tuple.
_TAPE_CACHE = ByteLRU(_TAPE_CACHE_BYTES)


class KernelTape:
    """Shape-keyed memo of kernel event streams, replayed into a ChargeLog."""

    def __init__(self, log: ChargeLog):
        self.log = log
        self._scratch: BSPMachine | None = None
        self._key = (log.machine.p, repr(log.machine.params))

    def _record(self, kernel: Callable[..., object], *args: Any, **kwargs: Any) -> FlatTape:
        """Run ``kernel(scratch, *args, **kwargs)`` with every observer of
        the scratch machine recording."""
        machine = self.log.machine
        if self._scratch is None:
            self._scratch = BSPMachine(machine.p, params=machine.params)
        scratch: Any = self._scratch
        events: list[tuple] = []
        for channel in ("counters", "metrics", "spans"):
            setattr(scratch, channel, _HookRecorder(channel, events))
        kernel(scratch, *args, **kwargs)
        tape = FlatTape(events)
        if self.log.deferred:
            tape.events = None  # only a write-through replay reads them (~20 MB at p = 256)
        return tape

    def run(self, kernel: Callable[..., object], group: RankGroup, operands: tuple, **kwargs: Any) -> None:
        """Charge ``kernel(machine, group, *operands, **kwargs)`` to the log.

        ``kernel`` is ``rect_qr`` or ``carma_matmul`` (operands already in
        the kernel's layout, so no redistribution is charged); its result
        is not used — the chase loop does the numerics directly.
        ``kwargs`` (``rect_qr``'s ``tag``) are not part of the tape's key,
        so they must not change what the kernel charges.  Under fault
        injection the real kernel runs on the real operands, so drop /
        corrupt / ABFT sites and the seeded RNG stream are untouched.
        """
        machine = self.log.machine
        if machine.faults.enabled:
            kernel(machine, group, *operands, charge_redistribution=False, **kwargs)
            return
        key = (self._key, kernel.__name__, tuple([a.shape for a in operands]), group.ranks)
        tape = _TAPE_CACHE.get(key)
        if tape is None or (tape.events is None and not self.log.deferred):
            tape = self._record(kernel, group, *operands, charge_redistribution=False, **kwargs)
            _TAPE_CACHE.put(key, tape, tape.nbytes)
        self.log.replay(tape)
