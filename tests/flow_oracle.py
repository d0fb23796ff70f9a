"""Eager reference for the metrics collector's comm matrix.

Every hook adds its named pattern's cells to the accumulators at once, one
cell at a time, in the order the pattern lists them.  Kept under ``tests/``
as the oracle ``tests/test_flow_memo.py`` compares the live
:class:`~repro.metrics.collector.MetricsCollector` (which folds lazily, in
blocks) against, bit for bit.
"""

from __future__ import annotations

import numpy as np

ACCUMULATORS = (
    "words_matrix", "messages_matrix", "sent_words", "recv_words",
    "sent_messages", "recv_messages", "unpaired_sent", "unpaired_recv",
)


def _side(idx, words) -> tuple[list, list]:
    if idx is None:
        return [], []
    ranks = np.atleast_1d(idx).tolist()
    if np.ndim(words) == 0:
        return ranks, [float(words)] * len(ranks)
    return ranks, np.asarray(words, dtype=np.float64).tolist()


class EagerCollector:
    """The comm hook of a metrics collector, applied immediately."""

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

    def on_comm(self, s_idx, s_w, r_idx, r_w, pattern) -> None:
        senders, sent = _side(s_idx, s_w)
        receivers, recvd = _side(r_idx, r_w)
        for r, w in zip(senders, sent):
            self.sent_words[r] += w
        for r, w in zip(receivers, recvd):
            self.recv_words[r] += w
        rows, cols, share = pattern.cells()
        for i, j, f in zip(rows.tolist(), cols.tolist(), share.tolist()):
            src, dst, w = senders[i], receivers[j], float(np.float64(sent[i]) * np.float64(f))
            if src == dst:
                self.unpaired_sent[src] += w
                self.unpaired_recv[dst] += w
                continue
            self.words_matrix[src, dst] += w
            if w > 0:
                self.messages_matrix[src, dst] += 1
                self.sent_messages[src] += 1
                self.recv_messages[dst] += 1

    def on_superstep(self, store) -> None:
        """Memory sampling is not part of the comm matrix."""
