"""Scalar reference for the machine's counter store.

This is the accounting engine as it stood before it was vectorised: one
:class:`RankCounters` object per rank, updated by plain Python loops.  It
left ``src/`` when :class:`~repro.bsp.counters.CounterArray` became the only
store there, and stays under ``tests/`` (beside ``flow_oracle.py`` and
``replay_oracle.py``) as the oracle the equivalence tests compare the live
store against, bit for bit and per rank.

Bit-identity can hold because every charged *value* is computed upstream of
the store; both stores then apply the same IEEE-754 additions per rank in
the same order.

There is no seam for it in ``src/``: :func:`scalar_store` swaps the name
``repro.bsp.machine.CounterArray`` for as long as a machine is being built,
which is the one place a store is created.  The oracle conforms to ``src/``,
not the other way round — its reports carry a ``CounterArray``-backed
``per_rank`` like every other :class:`~repro.bsp.counters.CostReport`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator
from unittest import mock

import numpy as np

import repro.bsp.machine as machine_module
from repro.bsp.counters import COUNTER_FIELDS, CostReport, CounterArray
from repro.bsp.machine import BSPMachine

#: the parametrisation axis of every two-store test
ENGINES = ("array", "scalar")


@dataclass
class RankCounters:
    """Running cost totals for one virtual processor."""

    flops: float = 0.0
    words_sent: float = 0.0
    words_recv: float = 0.0
    mem_traffic: float = 0.0
    supersteps: int = 0
    peak_memory_words: float = 0.0
    current_memory_words: float = 0.0

    @property
    def words(self) -> float:
        """Total interprocessor words moved by this rank (sent + received)."""
        return self.words_sent + self.words_recv

    def copy(self) -> "RankCounters":
        return RankCounters(
            flops=self.flops,
            words_sent=self.words_sent,
            words_recv=self.words_recv,
            mem_traffic=self.mem_traffic,
            supersteps=self.supersteps,
            peak_memory_words=self.peak_memory_words,
            current_memory_words=self.current_memory_words,
        )


def _as_counter_array(per_rank: list[RankCounters]) -> CounterArray:
    out = CounterArray(len(per_rank))
    for name in COUNTER_FIELDS:
        out.field_array(name)[:] = [getattr(c, name) for c in per_rank]
    return out


def _ranks(store: CounterArray) -> list[RankCounters]:
    """One :class:`RankCounters` per rank of an array store."""
    return [
        RankCounters(**{name: store.field_array(name)[r].item() for name in COUNTER_FIELDS})
        for r in range(store.p)
    ]


def aggregate(per_rank: list[RankCounters]) -> CostReport:
    """Build a :class:`CostReport` from per-rank counters."""
    if not per_rank:
        raise ValueError("aggregate requires at least one rank")
    flops = np.array([r.flops for r in per_rank])
    sent = np.array([r.words_sent for r in per_rank])
    recv = np.array([r.words_recv for r in per_rank])
    mem = np.array([r.mem_traffic for r in per_rank])
    steps = np.array([r.supersteps for r in per_rank])
    peak = np.array([r.peak_memory_words for r in per_rank])
    words = sent + recv
    return CostReport(
        p=len(per_rank),
        flops=float(flops.max()),
        words=float(words.max()),
        mem_traffic=float(mem.max()),
        supersteps=int(steps.max()),
        total_flops=float(flops.sum()),
        total_words=float(words.sum()),
        total_mem_traffic=float(mem.sum()),
        peak_memory_words=float(peak.max()),
        per_rank=_as_counter_array(per_rank),
    )


def scalar_delta(newer: CostReport, older: CostReport) -> CostReport:
    """``newer - older`` as the scalar engine computed it: one
    :class:`RankCounters` difference per rank, then :func:`aggregate`."""
    return aggregate([
        RankCounters(
            flops=a.flops - b.flops,
            words_sent=a.words_sent - b.words_sent,
            words_recv=a.words_recv - b.words_recv,
            mem_traffic=a.mem_traffic - b.mem_traffic,
            supersteps=a.supersteps - b.supersteps,
            peak_memory_words=a.peak_memory_words,
        )
        for a, b in zip(_ranks(newer.per_rank), _ranks(older.per_rank))
    ])


def _iter_idx(idx):
    """Iterate an index spec (int or int64 ndarray) as Python ints."""
    if isinstance(idx, (int, np.integer)):
        return (int(idx),)
    return (int(i) for i in idx)


def _amounts(idx, amount):
    """Pair each index with its amount (scalar broadcasts)."""
    if np.ndim(amount) == 0:
        a = float(amount)
        return ((i, a) for i in _iter_idx(idx))
    return ((int(i), float(w)) for i, w in zip(idx, amount))


class ScalarCounterStore:
    """List-of-``RankCounters`` store updated by per-rank Python loops."""

    def __init__(self, p: int):
        self.p = p
        self._counters: list[RankCounters] = [RankCounters() for _ in range(p)]

    def __len__(self) -> int:
        return self.p

    # -- accumulation primitives ---------------------------------------- #

    def add_flops(self, idx, amount, unique: bool = True) -> None:
        for i, a in _amounts(idx, amount):
            self._counters[i].flops += a

    def add_comm(self, send_idx=None, sent=None, recv_idx=None, recvd=None,
                 unique: bool = True) -> None:
        # the loop accumulates duplicate indices regardless, so ``unique``
        # (the CounterArray np.add.at switch) changes nothing here
        if send_idx is not None:
            for i, w in _amounts(send_idx, sent):
                self._counters[i].words_sent += w
        if recv_idx is not None:
            for i, w in _amounts(recv_idx, recvd):
                self._counters[i].words_recv += w

    def add_supersteps(self, idx, count, unique: bool = True) -> None:
        if np.ndim(count) == 0:
            for i in _iter_idx(idx):
                self._counters[i].supersteps += count
        else:
            # per-element counts (batched flush): same zip contract as the
            # float fields' _amounts
            for i, c in zip(_iter_idx(idx), count):
                self._counters[i].supersteps += int(c)

    def add_mem_traffic(self, idx, words, unique: bool = True) -> None:
        for i, w in _amounts(idx, words):
            self._counters[i].mem_traffic += w

    def note_memory(self, idx, words_each, unique: bool = True) -> None:
        for i, w in _amounts(idx, words_each):
            c = self._counters[i]
            c.current_memory_words = max(c.current_memory_words, w)
            c.peak_memory_words = max(c.peak_memory_words, c.current_memory_words)

    # -- snapshots and reports ------------------------------------------ #

    def field_array(self, name: str) -> np.ndarray:
        """Materialize one counter quantity as a numpy array (O(p) loop)."""
        if name not in COUNTER_FIELDS:
            raise ValueError(f"unknown counter field {name!r}")
        dtype = np.int64 if name == "supersteps" else np.float64
        return np.array([getattr(c, name) for c in self._counters], dtype=dtype)

    def snapshot(self) -> "ScalarCounterStore":
        out = ScalarCounterStore.__new__(ScalarCounterStore)
        out.p = self.p
        out._counters = [c.copy() for c in self._counters]
        return out

    def report(self) -> CostReport:
        return aggregate(self._counters)

    def __repr__(self) -> str:
        return f"ScalarCounterStore(p={self.p})"


@contextmanager
def scalar_store() -> Iterator[None]:
    """Every machine *constructed* inside the block counts on the oracle.

    Machines keep the store they were built with, so the block only needs
    to cover construction; code that builds its own machine (``repro.bench``
    cases, ``VerifiedMachine.for_problem``) runs inside it whole.
    """
    with mock.patch.object(machine_module, "CounterArray", ScalarCounterStore):
        yield


def machine_on(engine: str, p: int, cls: type[BSPMachine] = BSPMachine, **kwargs) -> BSPMachine:
    """``cls(p, **kwargs)`` on the named store: ``"array"`` is the machine as
    ``src/`` builds it, ``"scalar"`` the same class counting on the oracle."""
    if engine == "array":
        return cls(p, **kwargs)
    if engine != "scalar":
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    with scalar_store():
        machine = cls(p, **kwargs)
    assert isinstance(machine.counters, ScalarCounterStore)
    return machine
