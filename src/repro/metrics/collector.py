"""The per-rank metrics collector: who-talks-to-whom, memory watermarks.

A :class:`MetricsCollector` lives on a metrics-enabled
:class:`~repro.bsp.machine.BSPMachine` as ``machine.metrics`` and is fed by
the machine's charging primitives, so every collective, sharded kernel,
distribution-layer transfer and fault-retransmission in the repo is covered
without per-call-site instrumentation.  It records

* a p×p **communication matrix** (words and messages): entry ``(i, j)`` is
  the traffic of the directed pair ``i → j``;
* per-rank **send/receive mirrors**: arrays accumulated with the *identical
  values in the identical order* as the counter store's ``words_sent`` /
  ``words_recv`` slots, which is what makes the conservation check below
  bit-exact (same IEEE-754 additions per slot);
* per-rank **memory high-water marks** sampled at superstep boundaries,
  plus a decimated time series for the per-rank Perfetto counter tracks.

Named wire patterns
-------------------
Every comm charge names its wire pattern (:mod:`repro.bsp.pattern`): grid
row / column / fiber, partner exchange between halves, one tree level,
fan-in, pairs, all-to-all, uniform over the group, or explicit cells.  A
cell moves its share of the sender's charged words to its receiver; that is
one message.  Nothing is fitted: the matrix holds exactly the cells the
charges named.  A cell whose sender and receiver are the same rank is booked
to ``unpaired_sent`` / ``unpaired_recv`` instead — ``unpaired_*`` are the
words a charge books on a rank that is its own counterparty, and nothing
else.  A pattern that does not match its charge's marginals is not repaired:
the conservation check reports it.

The hook only *appends* the charge; any read folds the pending block into
the accumulators with order-preserving ``np.add.at`` — bit-identical to
adding at every hook (see :class:`MetricsCollector`).

Conservation invariant (:meth:`MetricsCollector.verify_conservation`):

* mirrors == live counters, **bit-exact** (``np.array_equal``);
* message-matrix row/column sums == per-rank message counts, exact (int);
* word-matrix row/column sums (+ unpaired) == mirrors, to float-summation
  tolerance (splitting a rank's words over its cells regroups the additions);
* the matrix diagonal is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bsp.params import MachineParams
from repro.bsp.pattern import Pattern
from repro.trace.spans import STATE_FIELDS, model_time

#: decimated memory/traffic time-series cap (halved + re-strided when hit)
_MAX_SAMPLES = 2048

#: pending additions (matrix cells + mirror slots) at which a collector folds
#: without waiting for a read; bounds the fold's temporaries to a few MB
_FOLD_ADDITIONS = 1 << 14

#: the reductions behind ``ndarray.max`` / ``any`` / ``all``, without their
#: Python-level wrappers (the superstep hook runs once per barrier)
_max, _any, _all = np.maximum.reduce, np.logical_or.reduce, np.logical_and.reduce

_NO_RANKS = np.empty(0, dtype=np.int64)
_NO_RANKS.setflags(write=False)
_NO_WORDS = np.empty(0)
_NO_WORDS.setflags(write=False)


def _entries(idx, words) -> tuple[np.ndarray, np.ndarray]:
    """One side of a comm charge as aligned ``(ranks, words)`` arrays (the
    words copied: they are read at the fold)."""
    if idx is None:
        return _NO_RANKS, _NO_WORDS
    ranks = idx if isinstance(idx, np.ndarray) and idx.ndim == 1 else np.atleast_1d(idx)
    if np.ndim(words) == 0:
        return ranks, np.full(ranks.size, float(words))
    return ranks, np.array(words, dtype=np.float64)


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


def _check_fit(pattern: Pattern, senders: int, receivers: int) -> None:
    if pattern.shape != (senders, receivers):
        raise ValueError(
            f"{pattern!r} does not fit a charge of {senders} senders and {receivers} receivers"
        )


def comm_block(sent, recv, starts: np.ndarray, patterns: list) -> tuple | None:
    """Comm charges made back to back, as one pending block for
    :meth:`MetricsCollector.on_replay`: ``sent`` / ``recv`` are the
    ``(ranks, words)`` of all their entries on each side (or ``None``),
    ``starts[i]`` where charge ``i``'s entries start on each side and
    ``patterns[i]`` its wire pattern.  Built once per recording, so the
    ranks are stored as ``int64``, the fold's index dtype."""
    if not patterns:
        return None
    sides = [(_NO_RANKS, _NO_WORDS) if e is None else (e[0].astype(np.int64), e[1]) for e in (sent, recv)]
    sizes = np.diff(np.vstack([starts, [side[0].size for side in sides]]), axis=0)
    cells = []
    for (s0, r0), (senders, receivers), pattern in zip(starts.tolist(), sizes.tolist(), patterns):
        _check_fit(pattern, senders, receivers)
        rows, cols, share = pattern.cells()
        cells.append((rows + s0, cols + r0, share))
    return sides[0], sides[1], tuple(np.concatenate(part) for part in zip(*cells))


def _offsets(arrays) -> np.ndarray:
    """Where each of ``arrays`` starts in their concatenation."""
    sizes = np.fromiter(map(len, arrays), dtype=np.intp, count=len(arrays))
    return np.cumsum(sizes) - sizes


def _folded(name: str) -> property:
    """Read access to accumulator ``name`` with the pending block folded in."""

    def read(self: "MetricsCollector") -> np.ndarray:
        self._fold()
        return getattr(self, name)

    return property(read)


class MetricsCollector:
    """Live per-rank telemetry of one machine (``machine.metrics``).

    Fed by :class:`~repro.bsp.machine.BSPMachine`'s charging primitives
    and, a replayed kernel tape at a time, by :meth:`on_replay`; with
    metrics off the machine holds the shared
    :data:`~repro.bsp.machine.NO_METRICS` no-op instead and every
    instrumented site costs a single attribute read.

    Nothing reads the pairwise accumulators mid-run, so the comm hook only
    *appends* — the charge's two sides and its pattern — and any read (these
    properties, :meth:`snapshot`, :meth:`verify_conservation`) folds the
    pending block with one ``np.add.at`` per accumulator.  ``np.add.at`` is
    unbuffered and applies additions in index order, so every matrix cell
    and per-rank slot sees the identical sequence of IEEE-754 additions an
    eager hook would have made (the argument
    :meth:`repro.bsp.batch.ChargeLog.flush` rests on).
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
        # the pending block: the (ranks, words) entries of each side and the
        # pattern cells of every comm charge, in program order
        self._pending: list[tuple] = []
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

    def _fold(self) -> None:
        """Apply the pending block: one ``np.add.at`` per accumulator, charges
        in program order (see the class docstring for why that is exact)."""
        if not self._pending:
            return
        (senders, sent), (receivers, recvd) = (
            (np.concatenate(ranks), np.concatenate(words))
            for ranks, words in (zip(*self._pending_sent), zip(*self._pending_recv))
        )
        np.add.at(self._sent_words, senders, sent)
        np.add.at(self._recv_words, receivers, recvd)
        # each charge's cells index its own entries: shift them to the block's
        rows, cols, share = (np.concatenate(part) for part in zip(*self._pending))
        counts = [cells[0].size for cells in self._pending]
        rows += np.repeat(_offsets([side[0] for side in self._pending_sent]), counts)
        cols += np.repeat(_offsets([side[0] for side in self._pending_recv]), counts)
        for pending in (self._pending, self._pending_sent, self._pending_recv):
            pending.clear()
        self._pending_additions = 0

        src, dst, words = senders[rows], receivers[cols], sent[rows] * share
        home = src == dst
        np.add.at(self._unpaired_sent, src[home], words[home])
        np.add.at(self._unpaired_recv, dst[home], words[home])
        src, dst, words = src[~home], dst[~home], words[~home]
        pair = src * self.p + dst
        np.add.at(self._words_matrix.reshape(-1), pair, words)
        messages = (words > 0.0).astype(np.int64)
        np.add.at(self._messages_matrix.reshape(-1), pair, messages)
        np.add.at(self._sent_messages, src, messages)
        np.add.at(self._recv_messages, dst, messages)

    # ------------------------------------------------------------------ #
    # machine hooks (one per charging primitive)

    def on_comm(self, s_idx, s_w, r_idx, r_w, pattern: Pattern) -> None:
        """Mirror a :meth:`~repro.bsp.machine.BSPMachine.charge_comm` call.

        The mirror additions repeat the exact store operations (same values,
        same order), so ``sent_words``/``recv_words`` stay bit-identical to
        the live counters; ``pattern``'s cells (over the charge's sender and
        receiver entries) land on the matrix at the next fold.
        """
        sent, recv = _entries(s_idx, s_w), _entries(r_idx, r_w)
        _check_fit(pattern, sent[0].size, recv[0].size)
        self._book(sent, recv, pattern.cells())

    def _book(self, sent, recv, cells) -> None:
        self._pending_sent.append(sent)
        self._pending_recv.append(recv)
        self._pending.append(cells)
        self._pending_additions += cells[0].size + sent[0].size + recv[0].size
        if self._pending_additions >= _FOLD_ADDITIONS:
            self._fold()

    def on_superstep(self, store) -> None:
        """Sample per-rank memory at a superstep boundary (watermarks plus
        the decimated time series feeding the Perfetto counter tracks)."""
        cur = np.asarray(store.field_array("current_memory_words"), dtype=np.float64)
        self.supersteps_seen += 1
        grew = cur > self.watermark_words
        if _any(grew):
            self.watermark_superstep[grew] = self.supersteps_seen
            self.watermark_words = np.maximum(self.watermark_words, cur)
        if (self.supersteps_seen - 1) % self._stride == 0:
            self._append(np.array([store.field_array(f) for f in STATE_FIELDS], dtype=np.float64).T[:, :, None])

    def on_replay(self, comms, states: np.ndarray) -> None:
        """Mirror a replayed kernel tape: its comm charges as one pending
        block (:func:`comm_block`, or ``None``), and a superstep sample
        at each counter state ``states[:, :, k]`` (:data:`STATE_FIELDS`) —
        bit-identical to :meth:`on_comm` / :meth:`on_superstep` at each."""
        if comms is not None:
            self._book(*comms)
        memory, count, seen = states[:, -1], states.shape[2], self.supersteps_seen
        if not count:
            return
        # the last superstep a rank's watermark grew at is the first at
        # which its memory reached its peak
        peak = _max(memory, axis=1)
        grew = peak > self.watermark_words
        if _any(grew):
            self.watermark_superstep[grew] = seen + 1 + memory.argmax(axis=1)[grew]
            self.watermark_words = np.maximum(self.watermark_words, peak)
        self.supersteps_seen += count
        # sample k is taken iff (seen + k) % stride == 0, and the stride
        # doubles whenever the series outgrows _MAX_SAMPLES
        k = 0
        while k < count:
            take = range(k + (-(seen + k)) % self._stride, count, self._stride)
            take = take[: _MAX_SAMPLES + 1 - len(self.series)]
            if not take:
                break
            self._append(states[:, :, take.start : take.stop : take.step])
            k = take[-1] + 1

    def _append(self, states: np.ndarray) -> None:
        """A series sample per state ``states[:, :, k]``; past
        ``_MAX_SAMPLES`` the series halves and the stride doubles."""
        # the memory vector rarely moves between samples: share the
        # previous sample's array while the content is unchanged
        cur = states[:, -1]
        moved = [True, *_any(cur[:, 1:] != cur[:, :-1], axis=0).tolist()] if cur.shape[1] > 1 else [True]
        if self.series and _all(self.series[-1][1] == cur[:, 0]):
            moved[0] = False
            memory = self.series[-1][1]
        times = model_time(self._params, states[:, :-1])
        # one array per sample: a halving must free the samples it drops
        for k, (time, new) in enumerate(zip(times, moved)):
            if new:
                memory = cur[:, k].copy()
            self.series.append((time, memory, states[:, 1, k].copy()))
        if len(self.series) > _MAX_SAMPLES:
            self.series = self.series[::2]
            self._stride *= 2

    # ------------------------------------------------------------------ #
    # verification and snapshots

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

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(p={self.p}, words={self.sent_words.sum():.4g}, "
            f"supersteps_seen={self.supersteps_seen})"
        )
