"""The per-rank metrics collector: who-talks-to-whom, memory watermarks.

A :class:`MetricsCollector` lives on a metrics-enabled
:class:`~repro.bsp.machine.BSPMachine` as ``machine.metrics`` and is fed by
the machine's charging primitives, so every collective, sharded kernel,
distribution-layer transfer and fault-retransmission in the repo is covered
without per-call-site instrumentation.  It records

* a p×p **communication matrix** (words and messages): entry ``(i, j)`` is
  the traffic attributed to the directed pair ``i → j``;
* per-rank **send/receive mirrors**: arrays accumulated with the *identical
  values in the identical order* as the counter store's ``words_sent`` /
  ``words_recv`` slots, which is what makes the conservation check below
  bit-exact (same IEEE-754 additions per slot);
* per-rank **memory high-water marks** sampled at superstep boundaries,
  plus a decimated time series for the per-rank Perfetto counter tracks.

Pairwise attribution
--------------------
Collectives with a non-trivial wire pattern (two-phase broadcast/reduce,
all-to-all transfer dicts, dense transfer matrices, point-to-point sends)
pass their **exact** per-pair pattern through the charging primitives.
Charges that only declare per-rank marginals (who sent/received how much)
are split by iterative proportional fitting (IPF/Sinkhorn) of the rank-one
seed ``sent ⊗ recv`` with a zero diagonal — the maximum-entropy flow
consistent with both marginals.  For single-root and uniform patterns
(gather, scatter, allgather, allreduce, reduce-scatter, p2p) the IPF fixed
point *is* the true pattern.  Words that cannot be paired (self-transfers
on one-rank groups, unbalanced one-sided charges) accumulate in
``unpaired_sent``/``unpaired_recv`` so conservation still closes.

Attribution is a pure function of the marginals and of which sender and
receiver positions are the same rank (:func:`attribute_flows`), so each
distinct wire pattern is fitted **once per process** and replayed from a
byte-capped memo as a :class:`FlowPattern`; a solve meets a few hundred
patterns in thousands of charges.  The collector *books* patterns and folds
them into its accumulators lazily, in blocks, with order-preserving
``np.add.at`` — the accumulators end up bit-identical to refitting and
adding at every hook (see :class:`MetricsCollector`).

Conservation invariant (:meth:`MetricsCollector.verify_conservation`):

* mirrors == live counters, **bit-exact** (``np.array_equal``);
* message-matrix row/column sums == per-rank message counts, exact (int);
* word-matrix row/column sums (+ unpaired) == mirrors, to float-summation
  tolerance (re-summing attributed flows regroups the additions);
* the matrix diagonal is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bsp.params import MachineParams
from repro.util.lru import ByteLRU

#: IPF iteration cap; exact patterns converge in one pass, and anything
#: still unbalanced after this many sweeps takes the unconstrained-split
#: fallback (see :func:`_fit_flows`)
_IPF_ITERS = 64

#: row-marginal tolerance at which the IPF sweep stops early
_IPF_CONVERGED_RTOL = 1e-13

#: decimated memory/traffic time-series cap (halved + re-strided when hit)
_MAX_SAMPLES = 2048

#: pending additions (matrix cells + mirror slots) at which a collector folds
#: without waiting for a read; bounds the fold's temporaries to a few MB
_FOLD_ADDITIONS = 1 << 14

#: byte cap of the process-wide fitted-pattern memo.  The observed repo
#: benchmark workload (n = 256, p = 64) holds 174 patterns in 2.5 MB and an
#: observed n = 512, p = 256 solve 390 in 39 MB (a dense world-size pattern
#: is p² cells), so every solve after a warm-up refits nothing; a long-lived
#: service evicts cold shapes instead of growing.
_FLOW_MEMO_BYTES = 64 << 20

#: per-array bookkeeping (object header, shape, strides) charged to the memo
_ARRAY_OVERHEAD = 112

#: additive counter quantities a rank must have touched to count as active
_ACTIVITY_FIELDS = ("flops", "words_sent", "words_recv", "mem_traffic", "supersteps")

_NO_POS = np.empty(0, dtype=np.intp)
_NO_POS.setflags(write=False)
_NO_WORDS = np.empty(0)
_NO_WORDS.setflags(write=False)


class FlowPattern(NamedTuple):
    """What one comm charge adds to a collector's pairwise accumulators.

    Positions index the ``(senders, receivers)`` rank arrays the charge was
    made on, so one fitted pattern serves every group with the same
    marginals and the same sender/receiver overlap, on machines of any
    ``p``.  Only non-zero additions are stored (adding ``0.0`` never changes
    an accumulator); every array is read-only.
    """

    #: sender / receiver position and words of each matrix cell
    rows: np.ndarray
    cols: np.ndarray
    words: np.ndarray
    #: ordered bookings to ``unpaired_sent`` (a position may repeat: the
    #: one-sided excess, the infeasible-diagonal peel and the signed
    #: residual are separate IEEE-754 additions, applied in this order)
    unpaired_sent_pos: np.ndarray
    unpaired_sent_words: np.ndarray
    unpaired_recv_pos: np.ndarray
    unpaired_recv_words: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes + _ARRAY_OVERHEAD for a in self)


def _pattern(rows, cols, words, unpaired_sent=(_NO_POS, _NO_WORDS),
             unpaired_recv=(_NO_POS, _NO_WORDS)) -> FlowPattern:
    pattern = FlowPattern(rows, cols, words, *unpaired_sent, *unpaired_recv)
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _exact_pattern(off: np.ndarray) -> FlowPattern:
    """An exact zero-diagonal g×g wire pattern as a record (not memoised)."""
    rows, cols = np.nonzero(off)
    return _pattern(rows, cols, off[rows, cols])


def _bookings(pos: np.ndarray, chunks: list) -> tuple[np.ndarray, np.ndarray]:
    """Ordered additions of each of ``chunks`` (aligned with ``pos``), zeros dropped."""
    words = np.concatenate(chunks)
    keep = words != 0.0
    return np.tile(pos, len(chunks))[keep], words[keep]


def _close(a, b, rtol: float, atol: float) -> bool:
    """``np.allclose(a, b, rtol, atol)`` for finite inputs, without its
    wrapper (which costs more than an IPF sweep on a group of <= 8 ranks)."""
    return bool((np.abs(a - b) <= atol + rtol * np.abs(b)).all())


def _fit_flows(su, sw, ru, rw) -> FlowPattern:
    """Split a marginal-only charge into pairwise flows by IPF.

    ``su``/``ru`` are unique rank arrays, ``sw``/``rw`` the aligned word
    counts.  Rows of the fitted flow matrix match ``sw`` and columns match
    ``rw``.  When the zero-diagonal constraint makes that infeasible (a
    rank whose only counterparty is itself, e.g. a band-window owner
    fetching into its own group), the split falls back to the unconstrained
    maximum-entropy flow and books the self-transfers as unpaired local
    traffic.  The (signed, float-noise scale in the feasible case) leftover
    residuals are always booked to the unpaired buckets, so conservation
    closes identically.
    """
    spos = np.flatnonzero(sw > 0.0)
    rpos = np.flatnonzero(rw > 0.0)
    sw, rw = sw[spos], rw[rpos]
    if spos.size == 0 or rpos.size == 0:
        return _pattern(_NO_POS, _NO_POS, _NO_WORDS, (spos, sw), (rpos, rw))
    unpaired_s = []
    unpaired_r = []
    ssum = float(sw.sum())
    rsum = float(rw.sum())
    if not _close(ssum, rsum, rtol=1e-12, atol=0.0):
        # One-sided excess (sends and receives charged separately):
        # only min(ssum, rsum) words can be paired at all.
        t = min(ssum, rsum)
        if ssum > t:
            excess = sw * (1.0 - t / ssum)
            unpaired_s.append(excess)
            sw = sw - excess
        if rsum > t:
            excess = rw * (1.0 - t / rsum)
            unpaired_r.append(excess)
            rw = rw - excess
    self_pairs = su[spos][:, None] == ru[rpos][None, :]
    flows = np.outer(sw, rw)  # cost: free(telemetry attribution, not simulated work)
    flows[self_pairs] = 0.0
    for _ in range(_IPF_ITERS):
        rows = flows.sum(axis=1)
        scale = np.divide(sw, rows, out=np.zeros_like(rows), where=rows > 0)
        flows *= scale[:, None]
        cols = flows.sum(axis=0)
        scale = np.divide(rw, cols, out=np.zeros_like(cols), where=cols > 0)
        flows *= scale[None, :]
        if _close(flows.sum(axis=1), sw, rtol=_IPF_CONVERGED_RTOL, atol=0.0):
            break
    if sw.any() and not (
        _close(flows.sum(axis=1), sw, rtol=1e-9, atol=1e-9)
        and _close(flows.sum(axis=0), rw, rtol=1e-9, atol=1e-9)
    ):
        # Zero-diagonal infeasible: fall back to the unconstrained
        # rank-one split (exact in one pass) and peel off the diagonal.
        # (``sw`` is all zero when a one-sided excess beyond 1/eps rounded
        # the paired share away: nothing to split, the residuals book it.)
        flows = np.outer(sw, rw) / float(sw.sum())  # cost: free(telemetry attribution)
        local = np.where(self_pairs, flows, 0.0)
        if local.any():
            local_s = local.sum(axis=1)
            local_r = local.sum(axis=0)
            unpaired_s.append(local_s)
            unpaired_r.append(local_r)
            sw = sw - local_s
            rw = rw - local_r
            flows = flows - local
    # Signed residual booking: float noise when IPF converged, the
    # genuinely unattributable remainder otherwise.
    unpaired_s.append(sw - flows.sum(axis=1))
    unpaired_r.append(rw - flows.sum(axis=0))
    rows, cols = np.nonzero(flows)
    return _pattern(
        spos[rows], rpos[cols], flows[rows, cols],
        _bookings(spos, unpaired_s), _bookings(rpos, unpaired_r),
    )


# Fitted patterns are shared by every collector of the process.  The key is
# what the fit depends on — both marginals and which (sender, receiver)
# positions are the same rank — never the absolute ranks or the machine.
_FLOW_MEMO = ByteLRU(_FLOW_MEMO_BYTES)


def attribute_flows(su: np.ndarray, sw: np.ndarray, ru: np.ndarray, rw: np.ndarray) -> FlowPattern:
    """The pairwise attribution of ``su[i]`` sending ``sw[i]`` words and
    ``ru[j]`` receiving ``rw[j]`` — a pure function, fitted once per
    distinct (marginals, overlap) and replayed from the memo afterwards.

    ``su`` and ``ru`` hold unique ranks; ``sw``/``rw`` are float64.
    """
    # a group charged against itself overlaps position for position
    overlap = None if su is ru else np.flatnonzero(su[:, None] == ru[None, :]).tobytes()
    key = (sw.tobytes(), rw.tobytes(), overlap)
    pattern = _FLOW_MEMO.get(key)
    if pattern is None:
        pattern = _fit_flows(su, sw, ru, rw)
        _FLOW_MEMO.put(key, pattern, pattern.nbytes + sw.nbytes + rw.nbytes + len(overlap or b""))
    return pattern


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen per-rank telemetry attached to a :class:`CostReport`.

    Read it with :meth:`repro.bsp.counters.CostReport.metrics`.  All arrays
    are detached copies; ``series`` is the decimated superstep time series
    of ``(model_time, current_memory_words, words_sent)`` samples.
    """

    p: int
    words_matrix: np.ndarray
    messages_matrix: np.ndarray
    sent_words: np.ndarray
    recv_words: np.ndarray
    sent_messages: np.ndarray
    recv_messages: np.ndarray
    unpaired_sent: np.ndarray
    unpaired_recv: np.ndarray
    watermark_words: np.ndarray
    watermark_superstep: np.ndarray
    peak_memory_words: np.ndarray
    supersteps_seen: int
    series: tuple
    conservation_problems: tuple

    @property
    def total_words(self) -> float:
        """All horizontal words sent (== received) across the run."""
        return float(self.sent_words.sum())

    @property
    def total_messages(self) -> int:
        return int(self.messages_matrix.sum())

    def heaviest_pairs(self, k: int = 8) -> list:
        """The ``k`` heaviest directed (src, dst, words) pairs."""
        flat = self.words_matrix.ravel()
        order = np.argsort(flat)[::-1][:k]
        p = self.p
        return [
            (int(i // p), int(i % p), float(flat[i])) for i in order if flat[i] > 0
        ]

    def verify(self) -> list:
        """Conservation problems found at snapshot time ([] = all held)."""
        return list(self.conservation_problems)


def _sizes(arrays) -> np.ndarray:
    return np.fromiter(map(len, arrays), dtype=np.intp, count=len(arrays))


def _absolute(ranks: np.ndarray, offsets: np.ndarray, positions: list) -> np.ndarray:
    """Ranks named by per-event ``positions`` into the concatenated per-event
    rank arrays ``ranks`` (event ``k`` starts at ``offsets[k]``)."""
    return ranks[np.concatenate(positions) + np.repeat(offsets, _sizes(positions))]


def _folded(name: str) -> property:
    """Read access to accumulator ``name`` with the pending block folded in."""

    def read(self: "MetricsCollector") -> np.ndarray:
        self._fold()
        return getattr(self, name)

    return property(read)


class MetricsCollector:
    """Live per-rank telemetry of one machine (``machine.metrics``).

    Fed exclusively by :class:`~repro.bsp.machine.BSPMachine`'s charging
    primitives; with metrics off the machine holds the shared
    :data:`~repro.bsp.machine.NO_METRICS` no-op instead and every
    instrumented site costs a single attribute read.

    Nothing reads the pairwise accumulators mid-run, so the comm hooks only
    *append* — a :class:`FlowPattern` with the ranks it lands on, and the
    mirror additions — and any read (these properties, :meth:`snapshot`,
    :meth:`verify_conservation`) folds the pending block with one
    ``np.add.at`` per accumulator.  ``np.add.at`` is unbuffered and applies
    additions in index order, so every matrix cell and per-rank slot sees
    the identical sequence of IEEE-754 additions an eager hook would have
    made (the argument :meth:`repro.bsp.batch.ChargeLog.flush` rests on).
    """

    enabled = True

    words_matrix = _folded("_words_matrix")
    messages_matrix = _folded("_messages_matrix")
    sent_words = _folded("_sent_words")
    recv_words = _folded("_recv_words")
    sent_messages = _folded("_sent_messages")
    recv_messages = _folded("_recv_messages")
    unpaired_sent = _folded("_unpaired_sent")
    unpaired_recv = _folded("_unpaired_recv")

    def __init__(self, p: int, params: MachineParams):
        self.p = p
        self._params = params
        self._words_matrix = np.zeros((p, p))
        self._messages_matrix = np.zeros((p, p), dtype=np.int64)
        self._sent_words = np.zeros(p)
        self._recv_words = np.zeros(p)
        self._sent_messages = np.zeros(p, dtype=np.int64)
        self._recv_messages = np.zeros(p, dtype=np.int64)
        self._unpaired_sent = np.zeros(p)
        self._unpaired_recv = np.zeros(p)
        # the pending block: (pattern, sender ranks, receiver ranks) per comm
        # event, and the (ranks, words) mirror additions of each direction
        self._pending: list[tuple[FlowPattern, np.ndarray, np.ndarray]] = []
        self._pending_sent: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_recv: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_additions = 0
        self.watermark_words = np.zeros(p)
        self.watermark_superstep = np.zeros(p, dtype=np.int64)
        self.supersteps_seen = 0
        self.series: list = []
        self._stride = 1

    # ------------------------------------------------------------------ #
    # the pending block

    def _book(self, sent: tuple, recv: tuple, pattern: FlowPattern,
              su: np.ndarray, ru: np.ndarray) -> None:
        """Queue one comm event: the ``(ranks, words)`` mirror additions of
        each direction, and ``pattern`` landing on ranks ``(su, ru)``."""
        self._pending_sent.append(sent)
        self._pending_recv.append(recv)
        self._pending.append((pattern, su, ru))
        self._pending_additions += pattern.words.size + sent[0].size + recv[0].size
        if self._pending_additions >= _FOLD_ADDITIONS:
            self._fold()

    def _fold(self) -> None:
        """Apply the pending block: one ``np.add.at`` per accumulator, events
        in program order (see the class docstring for why that is exact)."""
        if not self._pending:
            return
        for target, pending in (
            (self._sent_words, self._pending_sent),
            (self._recv_words, self._pending_recv),
        ):
            ranks, words = zip(*pending)
            np.add.at(target, np.concatenate(ranks), np.concatenate(words))
            pending.clear()
        patterns, sus, rus = zip(*self._pending)
        self._pending.clear()
        self._pending_additions = 0
        senders = np.concatenate(sus)
        receivers = np.concatenate(rus)
        s_off = np.cumsum(_sizes(sus)) - _sizes(sus)
        r_off = np.cumsum(_sizes(rus)) - _sizes(rus)

        src = _absolute(senders, s_off, [pat.rows for pat in patterns])
        dst = _absolute(receivers, r_off, [pat.cols for pat in patterns])
        words = np.concatenate([pat.words for pat in patterns])
        cells = src * self.p + dst
        np.add.at(self._words_matrix.reshape(-1), cells, words)
        messages = (words > 0.0).astype(np.int64)
        np.add.at(self._messages_matrix.reshape(-1), cells, messages)
        np.add.at(self._sent_messages, src, messages)
        np.add.at(self._recv_messages, dst, messages)
        np.add.at(
            self._unpaired_sent,
            _absolute(senders, s_off, [pat.unpaired_sent_pos for pat in patterns]),
            np.concatenate([pat.unpaired_sent_words for pat in patterns]),
        )
        np.add.at(
            self._unpaired_recv,
            _absolute(receivers, r_off, [pat.unpaired_recv_pos for pat in patterns]),
            np.concatenate([pat.unpaired_recv_words for pat in patterns]),
        )

    # ------------------------------------------------------------------ #
    # machine hooks (one per charging primitive)

    def on_comm(self, s_idx, s_w, r_idx, r_w, pairs=None) -> None:
        """Mirror a :meth:`~repro.bsp.machine.BSPMachine.charge_comm` call.

        The mirror additions repeat the exact store operations (same
        values, same order), so ``sent_words``/``recv_words`` stay
        bit-identical to the live counters.  ``pairs``,
        when given, is the exact ``(src, dst, words)`` wire pattern in
        absolute ranks; otherwise the marginals are split by
        :func:`attribute_flows`.
        """
        sent = (_NO_POS, _NO_WORDS) if s_idx is None else (s_idx, s_w)
        recv = (_NO_POS, _NO_WORDS) if r_idx is None else (r_idx, r_w)
        if pairs is None:
            self._book(sent, recv, attribute_flows(*sent, *recv), sent[0], recv[0])
            return
        wire = [(src, dst, w) for src, dst, w in pairs if src != dst and w > 0]
        src, dst, words = zip(*wire) if wire else ((), (), ())
        each = np.arange(len(wire))
        self._book(
            sent, recv, _pattern(each, each, np.array(words, dtype=np.float64)),
            np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
        )

    def on_comm_batch(self, idx, sent, recvd, pairs=None) -> None:
        """Mirror a ``charge_comm_batch`` call (group-aligned form).

        ``pairs``, when given, is the collective's exact zero-diagonal g×g
        pattern in group-position space (e.g. the two-phase broadcast).
        """
        single = isinstance(idx, (int, np.integer))
        if single:
            idx = np.array([int(idx)])
        g = idx.size

        def _aligned(words) -> np.ndarray:
            if words is None:
                return np.zeros(g)
            if np.ndim(words) == 0:
                return np.full(g, float(words))
            return np.array(words, dtype=np.float64)  # a copy: read at the fold

        sent = _aligned(sent)
        recvd = _aligned(recvd)
        if single:
            # single-rank: the charge is a self-transfer, unattributable
            here = np.zeros(1, dtype=np.intp)
            unpaired = _bookings(here, [sent]), _bookings(here, [recvd])
            pattern = _pattern(_NO_POS, _NO_POS, _NO_WORDS, *unpaired)
        elif pairs is not None:
            pattern = _exact_pattern(np.asarray(pairs, dtype=np.float64))
        else:
            pattern = attribute_flows(idx, sent, idx, recvd)
        self._book((idx, sent), (idx, recvd), pattern, idx, idx)

    def on_comm_matrix(self, idx: np.ndarray, off: np.ndarray,
                       sends: np.ndarray, recvs: np.ndarray) -> None:
        """Mirror a ``charge_comm_matrix`` call: the off-diagonal transfer
        matrix is itself the exact pairwise pattern."""
        self._book((idx, sends), (idx, recvs), _exact_pattern(off), idx, idx)

    def on_superstep(self, store) -> None:
        """Sample per-rank memory at a superstep boundary (watermarks plus
        the decimated time series feeding the Perfetto counter tracks)."""
        cur = np.asarray(store.field_array("current_memory_words"), dtype=np.float64)
        self.supersteps_seen += 1
        grew = cur > self.watermark_words
        if grew.any():
            self.watermark_superstep[grew] = self.supersteps_seen
            self.watermark_words = np.maximum(self.watermark_words, cur)
        if (self.supersteps_seen - 1) % self._stride == 0:
            sent = np.asarray(store.field_array("words_sent"), dtype=np.float64)
            # the memory vector rarely moves between samples: share the
            # previous sample's array while the content is unchanged
            memory = self.series[-1][1] if self.series else None
            if memory is None or not np.array_equal(memory, cur):
                memory = cur.copy()
            self.series.append((self._model_time(store), memory, sent.copy()))
            if len(self.series) > _MAX_SAMPLES:
                self.series = self.series[::2]
                self._stride *= 2

    # ------------------------------------------------------------------ #
    # verification and snapshots

    def _model_time(self, store) -> float:
        """Modeled critical-path time of the store's current state."""
        sent = np.asarray(store.field_array("words_sent"), dtype=np.float64)
        recv = np.asarray(store.field_array("words_recv"), dtype=np.float64)
        return self._params.time(
            float(np.asarray(store.field_array("flops")).max()),
            float((sent + recv).max()),
            float(np.asarray(store.field_array("mem_traffic")).max()),
            float(np.asarray(store.field_array("supersteps")).max()),
        )

    def verify_conservation(self, store) -> list:
        """Check the conservation invariant against the live counter store.

        Returns a list of problem descriptions ([] = the invariant holds).
        See the module docstring for what is bit-exact vs float-tolerant.
        """
        problems = []
        sent = np.asarray(store.field_array("words_sent"), dtype=np.float64)
        recv = np.asarray(store.field_array("words_recv"), dtype=np.float64)
        if not np.array_equal(self.sent_words, sent):
            problems.append(
                "sent-words mirror diverged from the counter store "
                "(a charge bypassed the metrics hooks)"
            )
        if not np.array_equal(self.recv_words, recv):
            problems.append(
                "recv-words mirror diverged from the counter store "
                "(a charge bypassed the metrics hooks)"
            )
        if np.diagonal(self.words_matrix).any():
            problems.append("communication matrix has nonzero diagonal entries")
        rows = self.words_matrix.sum(axis=1) + self.unpaired_sent
        if not np.allclose(rows, self.sent_words, rtol=1e-9, atol=1e-6):
            problems.append(
                "word-matrix row sums (+ unpaired) do not reproduce the "
                "per-rank sent words"
            )
        cols = self.words_matrix.sum(axis=0) + self.unpaired_recv
        if not np.allclose(cols, self.recv_words, rtol=1e-9, atol=1e-6):
            problems.append(
                "word-matrix column sums (+ unpaired) do not reproduce the "
                "per-rank received words"
            )
        if not np.array_equal(self.messages_matrix.sum(axis=1), self.sent_messages):
            problems.append("message-matrix row sums diverged from per-rank message counts")
        if not np.array_equal(self.messages_matrix.sum(axis=0), self.recv_messages):
            problems.append("message-matrix column sums diverged from per-rank message counts")
        return problems

    def snapshot(self, store) -> MetricsSnapshot:
        """Detached snapshot (with a final watermark sample and the
        conservation verdict baked in)."""
        cur = np.asarray(store.field_array("current_memory_words"), dtype=np.float64)
        grew = cur > self.watermark_words
        if grew.any():
            self.watermark_superstep[grew] = self.supersteps_seen
            self.watermark_words = np.maximum(self.watermark_words, cur)
        return MetricsSnapshot(
            p=self.p,
            words_matrix=self.words_matrix.copy(),
            messages_matrix=self.messages_matrix.copy(),
            sent_words=self.sent_words.copy(),
            recv_words=self.recv_words.copy(),
            sent_messages=self.sent_messages.copy(),
            recv_messages=self.recv_messages.copy(),
            unpaired_sent=self.unpaired_sent.copy(),
            unpaired_recv=self.unpaired_recv.copy(),
            watermark_words=self.watermark_words.copy(),
            watermark_superstep=self.watermark_superstep.copy(),
            peak_memory_words=np.asarray(
                store.field_array("peak_memory_words"), dtype=np.float64
            ).copy(),
            supersteps_seen=self.supersteps_seen,
            series=tuple(self.series),
            conservation_problems=tuple(self.verify_conservation(store)),
        )

    def reset(self) -> None:
        """Zero all telemetry in place (called by ``BSPMachine.reset``)."""
        for pending in (self._pending, self._pending_sent, self._pending_recv):
            pending.clear()
        self._pending_additions = 0
        for accumulator in (
            self._words_matrix, self._messages_matrix, self._sent_words, self._recv_words,
            self._sent_messages, self._recv_messages, self._unpaired_sent, self._unpaired_recv,
        ):
            accumulator.fill(0)
        self.watermark_words.fill(0.0)
        self.watermark_superstep.fill(0)
        self.supersteps_seen = 0
        self.series.clear()
        self._stride = 1

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(p={self.p}, words={self.sent_words.sum():.4g}, "
            f"supersteps_seen={self.supersteps_seen})"
        )
