"""Write-through tape replay one ordering point at a time — the oracle of
the bulk replay in :meth:`repro.bsp.batch.ChargeLog.replay`.

This is how a write-through log replayed a :class:`~repro.bsp.batch.FlatTape`
before the replay went bulk: walk the tape's ordering points in program
order; before every span open or close and every metrics superstep sample,
land each counter field up to that point with one ordered ``np.add.at``,
then fire the hook the live kernel fired there (``machine.span(...)``
enter/exit, ``metrics.on_superstep``, ``metrics.on_comm``).  Every hook
reads the live store, so it is obviously the live call stream — and slow:
O(points) hook calls per replay.  The bulk replay must leave counters, span
events, buckets, calls and the metrics snapshot byte-identical to it.

:func:`installed` swaps it in for a write-through log (a deferred log keeps
the library replay, which never had a loop).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.bsp.batch import _CLOSE, _COMM, _FIELDS, _OPEN, _SUPERSTEP, ChargeLog, FlatTape


class _Fields:
    """A tape's fields as the replay lands them on the live ``store``:
    ``landed`` entries of each field already added."""

    def __init__(self, store: Any, tape: FlatTape):
        self.tape = tape
        self.events: list[Any] = [None if e is None else (e[0].astype(np.intp), e[1])
                                  for e in (getattr(tape, name) for name in _FIELDS)]
        self.sizes = [0 if e is None else e[0].size for e in self.events]
        self.landed = [0] * len(_FIELDS)
        self.adders: tuple[Callable[..., None], ...] = (
            store.add_flops,
            lambda idx, words, unique: store.add_comm(idx, words, None, None, unique=unique),
            lambda idx, words, unique: store.add_comm(None, None, idx, words, unique=unique),
            store.add_mem_traffic,
            store.add_supersteps,
            store.note_memory,
        )

    def entries(self, field: int, start: int, end: int) -> tuple[Any, Any]:
        """One side of a taped comm charge as its metrics hook received it."""
        event = getattr(self.tape, _FIELDS[field])
        if event is None or start == end:
            return None, None
        return event[0][start:end].astype(np.int64), event[1][start:end]

    def land(self, ends: list[int]) -> None:
        """Add every field's entries up to ``ends`` to the store."""
        for i, end in enumerate(ends):
            start = self.landed[i]
            if start != end:
                idx, amount = self.events[i]
                self.adders[i](idx[start:end], amount[start:end], unique=False)
                self.landed[i] = end


def replay(log: ChargeLog, tape: FlatTape) -> None:
    """Replay ``tape`` into write-through ``log`` point by point."""
    if tape.points is None:
        raise RuntimeError("tape was recorded for a deferred log; it kept no ordering points")
    machine = log.machine
    spans, metrics = machine.spans.enabled, machine.metrics.enabled
    fields = _Fields(machine.counters, tape)
    payloads = iter(tape.payloads)
    open_spans = []
    for kind, *rest in tape.points.tolist():
        ends = rest[: len(_FIELDS)]
        if kind == _COMM:
            pattern = next(payloads)
            if metrics:
                s_start, r_start = rest[len(_FIELDS):]
                machine.metrics.on_comm(*fields.entries(1, s_start, ends[1]),
                                        *fields.entries(2, r_start, ends[2]), pattern)
        elif kind == _SUPERSTEP:
            if metrics:
                fields.land(ends)
                machine.metrics.on_superstep(machine.counters)
        elif kind == _OPEN:
            name, group = next(payloads)
            if spans:
                fields.land(ends)
                open_spans.append(machine.span(name, group).__enter__())
        else:
            assert kind == _CLOSE
            if spans:
                fields.land(ends)
                open_spans.pop().__exit__(None, None, None)
    fields.land(fields.sizes)


@contextmanager
def installed() -> Iterator[None]:
    """Within the block, every write-through log replays through
    :func:`replay`; a deferred log is untouched."""
    bulk = ChargeLog.replay

    def dispatch(self: ChargeLog, tape: FlatTape) -> None:
        (bulk if self.deferred else replay)(self, tape)

    ChargeLog.replay = dispatch  # type: ignore[method-assign]
    try:
        yield
    finally:
        ChargeLog.replay = bulk  # type: ignore[method-assign]

