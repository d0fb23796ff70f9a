"""Per-rank cost counters and aggregated cost reports.

Each virtual rank accumulates F (flops), words sent, words received,
Q (memory↔cache traffic) and S (supersteps it participated in).  A
:class:`CostReport` snapshots the machine-wide aggregates used everywhere in
tests and benchmarks.

:class:`CounterArray` is the one counter store: a numpy ``float64`` (or
``int64`` for S) array per quantity, one slot per rank, so charging a whole
:class:`~repro.bsp.group.RankGroup` is a single fancy-indexed slice op.
``machine.counters[r]`` hands back a :class:`RankSlot` view with a per-rank
attribute API (``counters[r].flops`` readable and writable) without per-rank
Python objects.

All *values* charged are computed by the machine/collective layer before
they reach the store; the store only accumulates.  That is what lets the
Python-loop reference in ``tests/scalar_oracle.py`` perform the identical
sequence of IEEE-754 additions per rank, so the equivalence suite compares
the two bit for bit, not approximately.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.bsp.params import MachineParams

#: per-rank quantities accepted by :meth:`CostReport.imbalance` /
#: :meth:`CostReport.gini`: the raw counter fields plus the derived
#: ``"words"`` (sent + received) and ``"memory"`` (peak footprint)
IMBALANCE_FIELDS: tuple[str, ...] = (
    "flops",
    "words",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
    "memory",
)

#: additive quantities whose activity marks a rank as part of the
#: executing group (idle ranks are excluded from imbalance statistics)
_ACTIVITY_FIELDS: tuple[str, ...] = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
)


def imbalance_of(values: np.ndarray, active: np.ndarray | None = None) -> float:
    """max/mean of ``values`` over the ``active`` mask (1.0 = balanced).

    The shared implementation behind :meth:`CostReport.imbalance`,
    :meth:`repro.trace.report.SpanBreakdown.imbalance` and the profiler's
    section table, so all three agree by construction.
    """
    vals = np.asarray(values, dtype=np.float64)
    if active is not None:
        vals = vals[np.asarray(active, dtype=bool)]
    if vals.size == 0:
        return 1.0
    mean = float(vals.mean())
    if mean == 0.0:
        return 1.0
    return float(vals.max()) / mean


def gini_of(values: np.ndarray, active: np.ndarray | None = None) -> float:
    """Gini coefficient of ``values`` over the ``active`` mask (0 = equal)."""
    vals = np.asarray(values, dtype=np.float64)
    if active is not None:
        vals = vals[np.asarray(active, dtype=bool)]
    if vals.size == 0:
        return 0.0
    mean = float(vals.mean())
    if mean <= 0.0:
        return 0.0
    diffs = float(np.abs(vals[:, None] - vals[None, :]).sum())
    return diffs / (2.0 * vals.size * vals.size * mean)


def rank_field_values(per_rank: CounterArray, name: str) -> np.ndarray:
    """One per-rank quantity (a :data:`IMBALANCE_FIELDS` name) of a snapshot."""
    if name == "words":
        return rank_field_values(per_rank, "words_sent") + rank_field_values(
            per_rank, "words_recv"
        )
    field_name = "peak_memory_words" if name == "memory" else name
    if field_name not in COUNTER_FIELDS:
        raise ValueError(f"unknown per-rank field {name!r}; expected one of {IMBALANCE_FIELDS}")
    return np.asarray(per_rank.field_array(field_name), dtype=np.float64)


def active_rank_mask(per_rank: CounterArray) -> np.ndarray:
    """Boolean mask of ranks with any nonzero additive counter."""
    mask: np.ndarray | None = None
    for name in _ACTIVITY_FIELDS:
        nz = rank_field_values(per_rank, name) != 0.0
        mask = nz if mask is None else (mask | nz)
    assert mask is not None
    return mask


@dataclass(frozen=True)
class CostReport:
    """Aggregated BSP cost of an algorithm run.

    ``flops``/``words``/``mem_traffic``/``supersteps`` are maxima over ranks
    (the critical-path convention of Section II); ``total_*`` fields are sums
    over ranks, useful for checking work efficiency and load balance.
    """

    p: int
    flops: float
    words: float
    mem_traffic: float
    supersteps: int
    total_flops: float
    total_words: float
    total_mem_traffic: float
    peak_memory_words: float
    #: per-rank snapshot (a :class:`CounterArray`) backing ``__sub__`` and the
    #: imbalance statistics.  Excluded from equality: reports compare by cost.
    per_rank: CounterArray = field(repr=False, compare=False)
    #: per-span breakdown (:class:`repro.trace.report.SpanBreakdown`) when
    #: the machine ran with span tracing enabled; ``None`` otherwise.
    #: Excluded from equality so traced and untraced runs compare by cost.
    span_breakdown: object = field(repr=False, compare=False, default=None)
    #: per-rank telemetry (:class:`repro.metrics.MetricsSnapshot`) when the
    #: machine ran with metrics enabled; ``None`` otherwise.  Excluded from
    #: equality so instrumented and plain runs compare by cost.
    metrics_data: object = field(repr=False, compare=False, default=None)

    @property
    def F(self) -> float:  # noqa: N802 — paper notation
        return self.flops

    @property
    def W(self) -> float:  # noqa: N802
        return self.words

    @property
    def Q(self) -> float:  # noqa: N802
        return self.mem_traffic

    @property
    def S(self) -> int:  # noqa: N802
        return self.supersteps

    @property
    def M(self) -> float:  # noqa: N802
        return self.peak_memory_words

    def time(self, params: MachineParams) -> float:
        """Modeled execution time on a machine with the given parameters."""
        return params.time(self.flops, self.words, self.mem_traffic, self.supersteps)

    def with_spans(self, breakdown: object) -> "CostReport":
        """Copy of this report carrying a per-span breakdown."""
        return replace(self, span_breakdown=breakdown)

    def by_span(self):  # noqa: ANN201 — SpanBreakdown (import cycle)
        """The per-span cost breakdown of the traced run.

        Raises ``ValueError`` if the machine did not run with span tracing
        (``BSPMachine(p, spans=True)``).
        """
        if self.span_breakdown is None:
            raise ValueError(
                "this report carries no span breakdown; run on a machine with "
                "span tracing enabled (BSPMachine(p, spans=True))"
            )
        return self.span_breakdown

    def with_metrics(self, snapshot: object) -> "CostReport":
        """Copy of this report carrying a per-rank metrics snapshot."""
        return replace(self, metrics_data=snapshot)

    def metrics(self):  # noqa: ANN201 — MetricsSnapshot (import cycle)
        """The per-rank telemetry snapshot of the instrumented run.

        Raises ``ValueError`` if the machine did not run with metrics
        (``BSPMachine(p, metrics=True)``).
        """
        if self.metrics_data is None:
            raise ValueError(
                "this report carries no per-rank metrics; run on a machine with "
                "metrics enabled (BSPMachine(p, metrics=True))"
            )
        return self.metrics_data

    def rank_values(self, fld: str = "flops") -> np.ndarray:
        """Per-rank values of one :data:`IMBALANCE_FIELDS` quantity."""
        return rank_field_values(self.per_rank, fld)

    def active_ranks(self) -> np.ndarray:
        """Mask of ranks that participated in the measured interval.

        Ranks outside the executing group (no flops, no words, no memory
        traffic, no supersteps) are excluded from imbalance statistics so
        small-group spans on a large machine don't report spurious skew.
        """
        return active_rank_mask(self.per_rank)

    def imbalance(self, fld: str = "flops") -> float:
        """max/mean of one per-rank quantity over the executing group.

        ``fld`` is one of :data:`IMBALANCE_FIELDS` (e.g. ``"flops"``,
        ``"words"``, ``"mem_traffic"``, ``"memory"``).  1.0 means perfectly
        balanced; idle ranks are excluded via :meth:`active_ranks`.
        """
        return imbalance_of(self.rank_values(fld), self.active_ranks())

    def gini(self, fld: str = "flops") -> float:
        """Gini coefficient of one per-rank quantity over the executing group."""
        return gini_of(self.rank_values(fld), self.active_ranks())

    @property
    def flop_imbalance(self) -> float:
        """max/mean flop ratio across executing ranks (1.0 = balanced).

        Thin alias for ``imbalance("flops")``, kept for callers that predate
        the general per-field form.
        """
        return self.imbalance("flops")

    def __sub__(self, other: "CostReport") -> "CostReport":
        """Cost delta between two snapshots of the *same* machine.

        Per-rank deltas are computed first, then re-aggregated, so the max
        over ranks refers to the interval, not to the absolute totals.
        """
        if self.p != other.p:
            raise ValueError("cannot subtract cost reports from different machines")
        return self.per_rank.delta_report(other.per_rank)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"p={self.p}  F={self.flops:.3g}  W={self.words:.3g}  "
            f"Q={self.mem_traffic:.3g}  S={self.supersteps}  "
            f"balance={self.flop_imbalance:.2f}"
        )


#: counter quantities tracked per rank, in canonical order
COUNTER_FIELDS: tuple[str, ...] = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
    "peak_memory_words",
    "current_memory_words",
)


class RankSlot:
    """Mutable view of one rank's slot in a :class:`CounterArray`.

    One attribute per :data:`COUNTER_FIELDS` quantity, readable and
    assignable (tests use assignment to fault-inject counter decreases),
    writing through to the backing arrays.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "CounterArray", i: int):
        self._store = store
        self._i = i

    @property
    def flops(self) -> float:
        return float(self._store.flops[self._i])

    @flops.setter
    def flops(self, v: float) -> None:
        self._store.flops[self._i] = v

    @property
    def words_sent(self) -> float:
        return float(self._store.words_sent[self._i])

    @words_sent.setter
    def words_sent(self, v: float) -> None:
        self._store.words_sent[self._i] = v

    @property
    def words_recv(self) -> float:
        return float(self._store.words_recv[self._i])

    @words_recv.setter
    def words_recv(self, v: float) -> None:
        self._store.words_recv[self._i] = v

    @property
    def mem_traffic(self) -> float:
        return float(self._store.mem_traffic[self._i])

    @mem_traffic.setter
    def mem_traffic(self, v: float) -> None:
        self._store.mem_traffic[self._i] = v

    @property
    def supersteps(self) -> int:
        return int(self._store.supersteps[self._i])

    @supersteps.setter
    def supersteps(self, v: int) -> None:
        self._store.supersteps[self._i] = v

    @property
    def peak_memory_words(self) -> float:
        return float(self._store.peak_memory_words[self._i])

    @peak_memory_words.setter
    def peak_memory_words(self, v: float) -> None:
        self._store.peak_memory_words[self._i] = v

    @property
    def current_memory_words(self) -> float:
        return float(self._store.current_memory_words[self._i])

    @current_memory_words.setter
    def current_memory_words(self, v: float) -> None:
        self._store.current_memory_words[self._i] = v

    @property
    def words(self) -> float:
        return self.words_sent + self.words_recv

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in COUNTER_FIELDS)
        return f"RankSlot({fields})"


class CounterArray:
    """Vectorized per-rank counter store: one array slot per rank.

    Accumulation entry points take either a single ``int`` rank or an
    ``int64`` index array (a cached :meth:`RankGroup.indices
    <repro.bsp.group.RankGroup.indices>` array); either way each update is
    O(1) numpy work rather than an O(ranks) Python loop.  ``unique=False``
    routes through :func:`numpy.add.at` so duplicate indices accumulate,
    matching the historical loop semantics for arbitrary iterables.
    """

    __slots__ = (
        "p",
        "flops",
        "words_sent",
        "words_recv",
        "mem_traffic",
        "supersteps",
        "peak_memory_words",
        "current_memory_words",
    )

    def __init__(self, p: int):
        self.p = p
        self.flops = np.zeros(p)
        self.words_sent = np.zeros(p)
        self.words_recv = np.zeros(p)
        self.mem_traffic = np.zeros(p)
        self.supersteps = np.zeros(p, dtype=np.int64)
        self.peak_memory_words = np.zeros(p)
        self.current_memory_words = np.zeros(p)

    # -- sequence protocol (per-rank views) ----------------------------- #

    def __len__(self) -> int:
        return self.p

    def __getitem__(self, rank: int) -> RankSlot:
        if not -self.p <= rank < self.p:
            raise IndexError(f"rank {rank} out of range for p={self.p}")
        return RankSlot(self, rank % self.p)

    def __iter__(self):
        return (RankSlot(self, i) for i in range(self.p))

    # -- accumulation primitives ---------------------------------------- #
    # ``idx`` is an int or an int64 ndarray; ``amount`` a float or an
    # aligned float array.  Values are computed by the caller — the store
    # only adds, the same IEEE ops per slot as a per-rank Python loop.

    def add_flops(self, idx, amount, unique: bool = True) -> None:
        if unique:
            self.flops[idx] += amount
        else:
            np.add.at(self.flops, idx, amount)

    def add_comm(self, send_idx=None, sent=None, recv_idx=None, recvd=None,
                 unique: bool = True) -> None:
        if unique:
            if send_idx is not None:
                self.words_sent[send_idx] += sent
            if recv_idx is not None:
                self.words_recv[recv_idx] += recvd
        else:
            if send_idx is not None:
                np.add.at(self.words_sent, send_idx, sent)
            if recv_idx is not None:
                np.add.at(self.words_recv, recv_idx, recvd)

    def add_supersteps(self, idx, count: int, unique: bool = True) -> None:
        if unique:
            self.supersteps[idx] += count
        else:
            np.add.at(self.supersteps, idx, count)

    def add_mem_traffic(self, idx, words, unique: bool = True) -> None:
        if unique:
            self.mem_traffic[idx] += words
        else:
            np.add.at(self.mem_traffic, idx, words)

    def note_memory(self, idx, words_each, unique: bool = True) -> None:
        cur = self.current_memory_words
        if isinstance(idx, np.ndarray):
            if unique:
                cur[idx] = np.maximum(cur[idx], words_each)
                self.peak_memory_words[idx] = np.maximum(self.peak_memory_words[idx], cur[idx])
            else:
                # duplicate indices: running max is order-insensitive, so
                # element-wise maximum.at gives the loop-exact result
                np.maximum.at(cur, idx, words_each)
                np.maximum.at(self.peak_memory_words, idx, cur[idx])
        else:
            cur[idx] = max(cur[idx], words_each)
            self.peak_memory_words[idx] = max(self.peak_memory_words[idx], cur[idx])

    def add_memory(self, idx, words_each, unique: bool = True) -> None:
        cur = self.current_memory_words
        if unique:
            cur[idx] += words_each
        else:
            # duplicate indices with non-negative grants: the footprint only
            # grows across the occurrences, so the final value is the running
            # maximum and one end-of-batch peak update is loop-exact.  (The
            # machine layer falls back to a loop for negative grants.)
            np.add.at(cur, idx, words_each)
        if isinstance(idx, np.ndarray):
            self.peak_memory_words[idx] = np.maximum(self.peak_memory_words[idx], cur[idx])
        else:
            self.peak_memory_words[idx] = max(self.peak_memory_words[idx], cur[idx])

    def release_memory(self, idx, words_each, unique: bool = True) -> None:
        cur = self.current_memory_words
        if isinstance(idx, np.ndarray):
            if unique:
                cur[idx] = np.maximum(0.0, cur[idx] - words_each)
            else:
                # non-negative releases: once clamped to zero a slot stays
                # clamped under further releases, so subtract-then-clamp at
                # the end matches the per-occurrence loop exactly
                np.subtract.at(cur, idx, words_each)
                np.maximum.at(cur, idx, 0.0)
        else:
            cur[idx] = max(0.0, cur[idx] - words_each)

    # -- snapshots and reports ------------------------------------------ #

    def field_array(self, name: str) -> np.ndarray:
        """The backing array for one counter quantity (no copy)."""
        if name not in COUNTER_FIELDS:
            raise ValueError(f"unknown counter field {name!r}")
        return getattr(self, name)

    def snapshot(self) -> "CounterArray":
        """O(p) array copy of all counters (watermarks, report backing)."""
        out = CounterArray.__new__(CounterArray)
        out.p = self.p
        for name in COUNTER_FIELDS:
            setattr(out, name, getattr(self, name).copy())
        return out

    def reset(self) -> None:
        for name in COUNTER_FIELDS:
            getattr(self, name).fill(0)

    def report(self) -> CostReport:
        """Aggregate this store: maxima and totals over ranks, plus a snapshot."""
        words = self.words_sent + self.words_recv
        return CostReport(
            p=self.p,
            flops=float(self.flops.max()),
            words=float(words.max()),
            mem_traffic=float(self.mem_traffic.max()),
            supersteps=int(self.supersteps.max()),
            total_flops=float(self.flops.sum()),
            total_words=float(words.sum()),
            total_mem_traffic=float(self.mem_traffic.sum()),
            peak_memory_words=float(self.peak_memory_words.max()),
            per_rank=self.snapshot(),
        )

    def delta_report(self, older: "CounterArray") -> CostReport:
        """Re-aggregated per-rank delta against an older snapshot.

        Additive counters are differenced per rank before aggregation; the
        peak-memory high-water mark is taken from the newer snapshot.
        """
        if self.p != older.p:
            raise ValueError("cannot subtract counter stores of different sizes")
        d = CounterArray.__new__(CounterArray)
        d.p = self.p
        d.flops = self.flops - older.flops
        d.words_sent = self.words_sent - older.words_sent
        d.words_recv = self.words_recv - older.words_recv
        d.mem_traffic = self.mem_traffic - older.mem_traffic
        d.supersteps = self.supersteps - older.supersteps
        d.peak_memory_words = self.peak_memory_words.copy()
        d.current_memory_words = np.zeros(self.p)
        return d.report()

    def __repr__(self) -> str:
        return f"CounterArray(p={self.p})"

