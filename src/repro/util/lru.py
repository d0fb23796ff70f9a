"""A byte-capped least-recently-used map for process-lifetime memo caches.

The kernel-tape cache (:mod:`repro.bsp.batch`) and the flow-attribution memo
(:mod:`repro.metrics.collector`) both live at module level, so that every
machine of an :class:`~repro.serve.EigenService` process shares one
recording per shape.  Unbounded, such a cache grows for the life of the
process; this map bounds it by the bytes its entries declare and evicts from
the cold end.  An evicted entry is simply recomputed on its next use — both
caches hold pure functions of their keys.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable


class ByteLRU:
    """LRU map bounded by the total ``nbytes`` its entries were stored with.

    ``hits`` / ``misses`` count :meth:`get` outcomes; the tests use them as a
    deterministic "nothing was recomputed" guard.
    """

    __slots__ = ("cap_bytes", "nbytes", "hits", "misses", "_entries")

    def __init__(self, cap_bytes: int):
        self.cap_bytes = cap_bytes
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key`` (now the most recent), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Store ``value`` as the most recent entry, then evict the least
        recently used entries until the total fits ``cap_bytes`` (an entry
        larger than the whole cap is not retained)."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.cap_bytes:
            _, (_, size) = self._entries.popitem(last=False)
            self.nbytes -= size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
