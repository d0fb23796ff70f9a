"""Per-rank cache model for vertical (memory↔cache) traffic accounting.

The paper charges vertical communication ``Q`` for data moved between a
rank's main memory and its cache of ``H`` words.  Two situations matter for
the algorithms in this repo:

1. **Streaming kernels** (Lemma III.1 / III.4): a local matmul or QR reads
   its operands from memory once and writes its output once, charging
   ``Q = O(sum of operand sizes)`` (the ``mnk/√H`` term is dropped under the
   paper's assumption ``ν ≤ γ·√H``).
2. **Resident operands** (Lemma III.3, Lemma IV.1): if a replicated operand
   fits in cache (``H`` large enough), repeated multiplications against it
   charge nothing for that operand — this is exactly the mechanism that
   removes the ``ν·(n/b)·n²/p^{2(1−δ)}`` term when ``H > 3n²/p^{2(1−δ)}``.

We model the cache at whole-dataset granularity (the same granularity the
lemmas reason at): an LRU over named datasets with capacity ``H`` words.
``access(key, words)`` returns the number of words that had to be moved in
from memory (0 on a hit); evictions are free (write-backs are not modeled:
a kernel's output is charged as streamed traffic).
"""

from __future__ import annotations

import math
from collections import OrderedDict


class CacheModel:
    """LRU cache over named datasets, capacity in words.

    An infinite capacity cache still charges compulsory (first-touch) misses,
    matching the paper's convention that every operand must be read from
    memory at least once.
    """

    def __init__(self, capacity_words: float = math.inf):
        if capacity_words <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = float(capacity_words)
        self._entries: OrderedDict[object, float] = OrderedDict()
        self._used = 0.0

    # -- internal helpers -------------------------------------------------

    def _evict_to_fit(self, words: float) -> None:
        while self._used + words > self.capacity and self._entries:
            _, sz = self._entries.popitem(last=False)
            self._used -= sz

    def _insert(self, key: object, words: float) -> None:
        if words > self.capacity:
            # Dataset larger than cache: streamed through, never resident.
            return
        self._evict_to_fit(words)
        self._entries[key] = words
        self._used += words

    def access(self, key: object, words: float) -> float:
        """Read a dataset into cache; return words moved from memory.

        A hit refreshes LRU order and costs 0.  A miss costs ``words`` (and
        may evict older datasets).  A dataset larger than the whole cache is
        streamed: it costs ``words`` on *every* access.

        Re-accessing a key at a *smaller* size is a subset read — a free hit
        (the entry shrinks, releasing capacity).  Re-accessing at a *larger*
        size charges only the grown part (the old prefix is resident) —
        this models the shrinking trailing matrix and the growing U/V
        aggregates of Algorithm IV.1 at the granularity its analysis uses.
        """
        if words < 0:
            raise ValueError("words must be nonnegative")
        if key in self._entries:
            old = self._entries[key]
            if words <= old:
                self._entries[key] = words
                self._used -= old - words
                self._entries.move_to_end(key)
                return 0.0
            # Growth: charge the delta; the whole (new) entry must now fit.
            delta = words - old
            self._used -= self._entries.pop(key)
            if words > self.capacity:
                return delta
            self._insert(key, words)
            return delta
        self._insert(key, words)
        return words
