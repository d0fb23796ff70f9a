"""Eager reference for the metrics collector's pairwise attribution.

This is the collector's comm half as it stood before attribution became a
memoised pure function folded in blocks: every hook refits and mutates the
accumulators at once, with numpy's own ``isclose`` / ``allclose``.  Kept
under ``tests/`` as the oracle ``tests/test_flow_memo.py`` compares the live
:class:`~repro.metrics.collector.MetricsCollector` against, bit for bit.
"""

from __future__ import annotations

import numpy as np

ACCUMULATORS = (
    "words_matrix", "messages_matrix", "sent_words", "recv_words",
    "sent_messages", "recv_messages", "unpaired_sent", "unpaired_recv",
)

_IPF_ITERS = 64
_IPF_CONVERGED_RTOL = 1e-13


class EagerCollector:
    """The comm hooks of a metrics collector, applied immediately."""

    enabled = True

    def __init__(self, p: int):
        self.p = p
        self.words_matrix = np.zeros((p, p))
        self.messages_matrix = np.zeros((p, p), dtype=np.int64)
        self.sent_words = np.zeros(p)
        self.recv_words = np.zeros(p)
        self.sent_messages = np.zeros(p, dtype=np.int64)
        self.recv_messages = np.zeros(p, dtype=np.int64)
        self.unpaired_sent = np.zeros(p)
        self.unpaired_recv = np.zeros(p)
        self.fits = 0

    def _record_pairs(self, pairs) -> None:
        for src, dst, w in pairs:
            if src == dst or w <= 0:
                continue
            self.words_matrix[src, dst] += w
            self.messages_matrix[src, dst] += 1
            self.sent_messages[src] += 1
            self.recv_messages[dst] += 1

    def _record_pair_matrix(self, idx: np.ndarray, off: np.ndarray) -> None:
        sub = np.ix_(idx, idx)
        self.words_matrix[sub] += off
        mask = off > 0.0
        self.messages_matrix[sub] += mask
        self.sent_messages[idx] += mask.sum(axis=1)
        self.recv_messages[idx] += mask.sum(axis=0)

    def _record_flows(self, su, sw, ru, rw) -> None:
        self.fits += 1
        sm = sw > 0.0
        rm = rw > 0.0
        su, sw = su[sm], sw[sm]
        ru, rw = ru[rm], rw[rm]
        if su.size == 0 or ru.size == 0:
            if su.size:
                self.unpaired_sent[su] += sw
            if ru.size:
                self.unpaired_recv[ru] += rw
            return
        ssum = float(sw.sum())
        rsum = float(rw.sum())
        if not np.isclose(ssum, rsum, rtol=1e-12, atol=0.0):
            t = min(ssum, rsum)
            if ssum > t:
                excess = sw * (1.0 - t / ssum)
                self.unpaired_sent[su] += excess
                sw = sw - excess
            if rsum > t:
                excess = rw * (1.0 - t / rsum)
                self.unpaired_recv[ru] += excess
                rw = rw - excess
        self_pairs = su[:, None] == ru[None, :]
        flows = np.outer(sw, rw)
        flows[self_pairs] = 0.0
        for _ in range(_IPF_ITERS):
            rows = flows.sum(axis=1)
            scale = np.divide(sw, rows, out=np.zeros_like(rows), where=rows > 0)
            flows *= scale[:, None]
            cols = flows.sum(axis=0)
            scale = np.divide(rw, cols, out=np.zeros_like(cols), where=cols > 0)
            flows *= scale[None, :]
            if np.allclose(flows.sum(axis=1), sw, rtol=_IPF_CONVERGED_RTOL, atol=0.0):
                break
        # ``sw.any()``: the one deliberate difference from the pre-memo code,
        # which divided 0 / 0 here when an excess beyond 1/eps zeroed ``sw``
        if sw.any() and not (
            np.allclose(flows.sum(axis=1), sw, rtol=1e-9, atol=1e-9)
            and np.allclose(flows.sum(axis=0), rw, rtol=1e-9, atol=1e-9)
        ):
            flows = np.outer(sw, rw) / float(sw.sum())
            local = np.where(self_pairs, flows, 0.0)
            if local.any():
                local_s = local.sum(axis=1)
                local_r = local.sum(axis=0)
                self.unpaired_sent[su] += local_s
                self.unpaired_recv[ru] += local_r
                sw = sw - local_s
                rw = rw - local_r
                flows = flows - local
        self.unpaired_sent[su] += sw - flows.sum(axis=1)
        self.unpaired_recv[ru] += rw - flows.sum(axis=0)
        sub = np.ix_(su, ru)
        self.words_matrix[sub] += flows
        mask = flows > 0.0
        self.messages_matrix[sub] += mask
        self.sent_messages[su] += mask.sum(axis=1)
        self.recv_messages[ru] += mask.sum(axis=0)

    def on_comm(self, s_idx, s_w, r_idx, r_w, pairs=None) -> None:
        if s_idx is not None:
            self.sent_words[s_idx] += s_w
        if r_idx is not None:
            self.recv_words[r_idx] += r_w
        if pairs is not None:
            self._record_pairs(pairs)
            return
        empty_i = np.empty(0, dtype=np.int64)
        empty_w = np.empty(0)
        self._record_flows(
            s_idx if s_idx is not None else empty_i,
            s_w if s_w is not None else empty_w,
            r_idx if r_idx is not None else empty_i,
            r_w if r_w is not None else empty_w,
        )

    def on_comm_batch(self, idx, sent, recvd, pairs=None) -> None:
        if isinstance(idx, (int, np.integer)):
            i = int(idx)
            if sent is not None:
                self.sent_words[i] += sent
                self.unpaired_sent[i] += sent
            if recvd is not None:
                self.recv_words[i] += recvd
                self.unpaired_recv[i] += recvd
            return
        if sent is not None:
            self.sent_words[idx] += sent
        if recvd is not None:
            self.recv_words[idx] += recvd
        if pairs is not None:
            self._record_pair_matrix(idx, np.asarray(pairs, dtype=np.float64))
            return
        g = idx.size

        def _aligned(words) -> np.ndarray:
            if words is None:
                return np.zeros(g)
            if np.ndim(words) == 0:
                return np.full(g, float(words))
            return np.asarray(words, dtype=np.float64)

        self._record_flows(idx, _aligned(sent), idx, _aligned(recvd))

    def on_comm_matrix(self, idx, off, sends, recvs) -> None:
        self.sent_words[idx] += sends
        self.recv_words[idx] += recvs
        self._record_pair_matrix(idx, off)

    def on_superstep(self, store) -> None:
        """Supersteps touch no pairwise accumulator."""
