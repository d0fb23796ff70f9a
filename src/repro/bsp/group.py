"""Processor groups: ordered subsets of a machine's ranks.

The paper repeatedly hands disjoint subsets of processors to concurrent
sub-computations (e.g. the ``r`` recursive QR calls in Algorithm III.2, or
the bulge-chasing groups ``Π̂_j`` of Algorithm IV.2).  A :class:`RankGroup`
is an immutable ordered tuple of global rank ids with splitting helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.intlog import split_evenly, chunk_offsets


@dataclass(frozen=True)
class RankGroup:
    """An ordered subset of machine ranks.

    Groups memoize their numpy index array (:meth:`indices`) and their
    rank→position map, so the vectorized accounting engine can charge a whole
    group as one O(1) numpy slice op instead of an O(|group|) Python loop.
    Both caches are lazily built once per group object and never invalidated
    (the dataclass is frozen, so the rank tuple cannot change).
    """

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("RankGroup must be non-empty")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("RankGroup ranks must be distinct")

    def indices(self) -> np.ndarray:
        """Cached, read-only ``int64`` index array of the group's ranks.

        The same array object is returned on every call; the accounting
        engine uses it for fancy-indexed charges without re-materializing
        the tuple.  ``min_rank``/``max_rank`` are cached alongside so bounds
        checks against a machine's ``p`` are O(1).
        """
        idx = self.__dict__.get("_indices")
        if idx is None:
            idx = np.asarray(self.ranks, dtype=np.int64)
            idx.setflags(write=False)
            object.__setattr__(self, "_indices", idx)
            object.__setattr__(self, "_min_rank", int(idx.min()))
            object.__setattr__(self, "_max_rank", int(idx.max()))
        return idx

    @property
    def min_rank(self) -> int:
        """Smallest rank id in the group (cached with :meth:`indices`)."""
        if "_min_rank" not in self.__dict__:
            self.indices()
        return self.__dict__["_min_rank"]

    @property
    def max_rank(self) -> int:
        """Largest rank id in the group (cached with :meth:`indices`)."""
        if "_max_rank" not in self.__dict__:
            self.indices()
        return self.__dict__["_max_rank"]

    def _positions(self) -> dict[int, int]:
        pos = self.__dict__.get("_pos")
        if pos is None:
            pos = {r: i for i, r in enumerate(self.ranks)}
            object.__setattr__(self, "_pos", pos)
        return pos

    @property
    def size(self) -> int:
        return len(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self):
        return iter(self.ranks)

    def __contains__(self, rank: int) -> bool:
        return rank in self._positions()

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return RankGroup(self.ranks[idx])
        return self.ranks[idx]

    @property
    def root(self) -> int:
        """Conventional root rank of the group (first member)."""
        return self.ranks[0]

    def split(self, parts: int) -> list["RankGroup"]:
        """Partition into ``parts`` contiguous subgroups of near-equal size.

        Raises if the group is smaller than ``parts`` (every subgroup must be
        non-empty — the paper's algorithms guarantee this by construction).
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        if parts > self.size:
            raise ValueError(f"cannot split group of {self.size} into {parts} non-empty parts")
        sizes = split_evenly(self.size, parts)
        offs = chunk_offsets(sizes)
        return [RankGroup(self.ranks[o : o + s]) for o, s in zip(offs, sizes)]

    def take(self, count: int) -> "RankGroup":
        """First ``count`` ranks of the group (``Π[1 : count]`` in the paper)."""
        if not 1 <= count <= self.size:
            raise ValueError(f"take count must be in [1, {self.size}], got {count}")
        return RankGroup(self.ranks[:count])

    def index_of(self, rank: int) -> int:
        """Position of a global rank within this group."""
        try:
            return self._positions()[rank]
        except KeyError:
            raise ValueError(f"rank {rank} is not in group") from None
