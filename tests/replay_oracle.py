"""A charge log landed one ordering point at a time — the oracle of the bulk
landing in :meth:`repro.bsp.batch.ChargeLog.flush`.

This is how a log reached its observers before the flush went bulk: walk
the log's ordering points in program order; before every span open or
close, every metrics superstep sample and every barrier's fault draw, land
each counter field up to that point with one ordered ``np.add.at``, then
fire the hook the per-call path fired there (the span recorder's open /
close, ``metrics.on_superstep``, ``metrics.on_comm``,
``faults.at_barrier``).  Every hook reads the live store, so it is
obviously the per-call stream — and slow: O(points) hook calls per flush.
A barrier whose draw raises stops the walk: nothing past it lands.  The
bulk flush must leave counters, span events, buckets, calls, the metrics
snapshot and the fault draws byte-identical to it.

:func:`installed` swaps it in for every log's landing.  It does not check
ranks or amounts: it is run on charges the bulk landing accepts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.bsp.batch import (
    _CLOSE, _COMM, _FIELDS, _OPEN, _RECV, _ROW, _SENT, _SS, _SUPERSTEP, ChargeLog, _Recorder,
)


class _Fields:
    """A log's fields as the walk lands them on the live ``store``:
    ``landed`` entries of each field already added."""

    def __init__(self, store: Any, events: list):
        self.events = events
        self.sizes = [ranks.size for ranks, _ in events]
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
        """One side of a comm charge as its metrics hook received it."""
        if start == end:
            return None, None
        ranks, amounts = self.events[field]
        return ranks[start:end], amounts[start:end]

    def land(self, ends: list[int]) -> None:
        """Add every field's entries up to ``ends`` to the store."""
        for i, end in enumerate(ends):
            start = self.landed[i]
            if start != end:
                idx, amount = self.events[i]
                self.adders[i](idx[start:end], amount[start:end], unique=False)
                self.landed[i] = end


def land(log: ChargeLog) -> None:
    """Land ``log``'s entries and ordering points one point at a time."""
    rec, log._rec = log._rec, _Recorder()
    machine = log.machine
    if machine.spans.log is rec:
        machine.spans.log = None
    spans, metrics, faults = machine.spans, machine.metrics, machine.faults
    fields = _Fields(machine.counters, rec.events())
    sent_start = recv_start = ss_start = 0
    for (kind, *ends), payload in zip(rec.points.view().reshape(-1, _ROW).tolist(), rec.payloads):
        if kind == _COMM:
            if metrics.enabled:
                metrics.on_comm(*fields.entries(_SENT, sent_start, ends[_SENT]),
                                *fields.entries(_RECV, recv_start, ends[_RECV]), payload)
            sent_start, recv_start = ends[_SENT], ends[_RECV]
        elif kind == _SUPERSTEP:
            fields.land(ends)
            if metrics.enabled:
                metrics.on_superstep(machine.counters)
            if faults.enabled:
                faults.at_barrier(fields.events[_SS][0][ss_start : ends[_SS]].tolist())
            ss_start = ends[_SS]
        elif spans.enabled:
            fields.land(ends)
            if kind == _OPEN:
                spans.open(*payload)
            else:
                assert kind == _CLOSE
                spans.close()
    fields.land(fields.sizes)


@contextmanager
def installed() -> Iterator[None]:
    """Within the block, every log lands through :func:`land`."""
    bulk = ChargeLog._land
    ChargeLog._land = land  # type: ignore[method-assign]
    try:
        yield
    finally:
        ChargeLog._land = bulk  # type: ignore[method-assign]

