"""Scalar (pre-vectorization) counter store — the accounting oracle.

:class:`ScalarCounterStore` implements the same accumulation interface as
:class:`~repro.bsp.counters.CounterArray` but keeps one Python
:class:`~repro.bsp.counters.RankCounters` object per rank and updates them
with plain loops, exactly as the machine did before the engine was
vectorized.  It exists so the fast path stays falsifiable:

* ``BSPMachine(p, engine="scalar")`` runs any workload on the oracle;
* the equivalence suite (``tests/test_engine_equivalence.py``) and
  ``repro bench`` assert that both engines produce bit-identical
  :class:`~repro.bsp.counters.CostReport`s — identical maxima, totals *and*
  per-rank values, not approximately equal ones.

Bit-identity holds because all charged *values* are computed upstream of the
store; both stores then apply the same IEEE-754 additions per rank in the
same order.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.counters import COUNTER_FIELDS, CostReport, RankCounters, aggregate


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

    # -- sequence protocol ---------------------------------------------- #

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, rank: int) -> RankCounters:
        return self._counters[rank]

    def __iter__(self):
        return iter(self._counters)

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

    def add_memory(self, idx, words_each, unique: bool = True) -> None:
        for i, w in _amounts(idx, words_each):
            c = self._counters[i]
            c.current_memory_words += w
            c.peak_memory_words = max(c.peak_memory_words, c.current_memory_words)

    def release_memory(self, idx, words_each, unique: bool = True) -> None:
        for i, w in _amounts(idx, words_each):
            c = self._counters[i]
            c.current_memory_words = max(0.0, c.current_memory_words - w)

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

    def reset(self) -> None:
        # Zero IN PLACE, mirroring CounterArray.reset()'s fill(0): replacing
        # the list (the old behavior) left previously handed-out
        # RankCounters references pointing at pre-reset state, so code
        # holding a per-rank view diverged between the engines after a
        # mid-run reset.
        for c in self._counters:
            c.flops = 0.0
            c.words_sent = 0.0
            c.words_recv = 0.0
            c.mem_traffic = 0.0
            c.supersteps = 0
            c.peak_memory_words = 0.0
            c.current_memory_words = 0.0

    def report(self) -> CostReport:
        return aggregate(self._counters)

    def __repr__(self) -> str:
        return f"ScalarCounterStore(p={self.p})"
