"""Wire patterns: who sends to whom in one communication charge.

Every comm charge (:meth:`~repro.bsp.machine.BSPMachine.charge_comm` and its
group form :meth:`~repro.bsp.machine.BSPMachine.charge_comm_batch`, the
:class:`~repro.bsp.batch.ChargeLog` appends) names the wire pattern behind
its per-rank word counts.  The pattern charges nothing — the marginals do —
but it is what the metrics layer books its rank-to-rank heat map from, so
the map records the pattern the algorithm runs instead of inferring one.

A :class:`Pattern` lives in *entry space*: cell ``k`` carries the fraction
``share[k]`` of the words charged to sender entry ``rows[k]`` to receiver
entry ``cols[k]``.  For a group charged against itself (``charge_comm_batch``)
both sides are the group's positions.  A cell whose sender and receiver are
the same rank is that rank's own traffic: the collector books it to
``unpaired_*``, never to the matrix.

Constructors (each sender's words are split evenly over its cells unless
``explicit`` weighs them):

* :func:`uniform` — every member to every other member;
* :func:`grid_row` / :func:`grid_col` / :func:`grid_fiber` — the other
  members of the same row / column / fiber of a row-major
  :class:`~repro.dist.grid.ProcGrid` (:func:`grid_lines` for any set of axes);
* :func:`halves` — partner exchange between the halves
  :meth:`RankGroup.split(2) <repro.bsp.group.RankGroup.split>` makes;
* :func:`tree_level` — partner exchange along the edges of one level of a
  binary reduction tree;
* :func:`fan_in` — every sender entry to the one receiver;
* :func:`pairs` — sender entry ``i`` to receiver entry ``i``;
* :func:`all_to_all` — every sender entry to every receiver entry;
* :func:`explicit` — given cells with given weights.

A pattern's cells are built the first time the metrics layer reads them, so
a machine without metrics never materializes one; every constructor but
:func:`explicit` is memoized, so a site pays one cache lookup per charge.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.util.intlog import split_evenly

#: (sender entry, receiver entry, share of the sender's words) per cell
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]


class Pattern:
    """The cells of one comm charge, over ``shape`` = (sender entries,
    receiver entries); built lazily (see :meth:`cells`)."""

    __slots__ = ("shape", "_build", "_cells")

    def __init__(self, shape: tuple[int, int], build: Callable[[], tuple]):
        self.shape = shape
        self._build = build
        self._cells: Cells | None = None

    def cells(self) -> Cells:
        """Read-only ``(rows, cols, share)``; built on first use."""
        if self._cells is None:
            self._cells = _cells(*self._build())
        return self._cells

    def __repr__(self) -> str:
        return f"Pattern(shape={self.shape})"


def _cells(rows, cols, weights=None) -> Cells:
    """Cells with each sender's weights normalized to shares summing to one."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    w = np.ones(rows.size) if weights is None else np.asarray(weights, dtype=np.float64)
    total = np.bincount(rows, w)[rows] if rows.size else w
    share = np.divide(w, total, out=np.zeros(rows.size), where=total > 0)
    for a in (rows, cols, share):
        a.setflags(write=False)
    return rows, cols, share


@lru_cache(maxsize=None)
def grid_lines(shape: tuple[int, ...], axes: tuple[int, ...]) -> Pattern:
    """Each position of a row-major grid of ``shape`` to every position that
    differs from it in exactly one coordinate, that coordinate in ``axes``.
    A grid whose ``axes`` all have length one keeps its words at home."""
    size = int(np.prod(shape))

    def build():
        coords = np.indices(shape).reshape(len(shape), size)
        differ = coords[:, :, None] != coords[:, None, :]
        peers = (differ.sum(axis=0) == 1) & differ[list(axes)].any(axis=0)
        if not peers.any():
            peers = np.eye(size, dtype=bool)
        return np.nonzero(peers)

    return Pattern((size, size), build)


def uniform(g: int) -> Pattern:
    """Every member of a ``g``-rank group to every other member."""
    return grid_lines((g,), (0,))


def grid_row(grid) -> Pattern:
    """Within each row Π[i, :(, l)] of ``grid`` (the peers sharing every
    coordinate but the column index)."""
    return grid_lines(grid.shape, (1,))


def grid_col(grid) -> Pattern:
    """Within each column Π[:, j(, l)] of ``grid``."""
    return grid_lines(grid.shape, (0,))


def grid_fiber(grid) -> Pattern:
    """Within each fiber Π[i, j, :] of a q×q×c ``grid`` (its c layers)."""
    return grid_lines(grid.shape, (2,))


@lru_cache(maxsize=None)
def halves(g: int) -> Pattern:
    """Position ``i`` of the first half of a ``g``-rank group swaps with
    position ``i`` of the second; the odd middle rank of an uneven split
    has no partner and keeps its words."""
    first, second = split_evenly(g, 2)

    def build():
        lo = np.arange(second)
        rows = np.concatenate([lo, lo + first, np.arange(second, first)])
        cols = np.concatenate([lo + first, lo, np.arange(second, first)])
        return rows, cols

    return Pattern((g, g), build)


@lru_cache(maxsize=None)
def tree_level(g: int, level: int) -> Pattern:
    """The edges of ``level`` of a binary tree over ``g`` positions, both
    directions: ``i`` swaps with ``i xor 2**level`` (a position without
    that partner keeps its words)."""

    def build():
        rows = np.arange(g)
        partner = rows ^ (1 << level)
        return rows, np.where(partner < g, partner, rows)

    return Pattern((g, g), build)


@lru_cache(maxsize=None)
def fan_in(senders: int) -> Pattern:
    """Every one of ``senders`` entries to the single receiver entry."""
    return Pattern((senders, 1), lambda: (np.arange(senders), np.zeros(senders, dtype=np.intp)))


@lru_cache(maxsize=None)
def pairs(n: int) -> Pattern:
    """Sender entry ``i`` to receiver entry ``i``, for ``i < n``."""
    return Pattern((n, n), lambda: (np.arange(n), np.arange(n)))


@lru_cache(maxsize=None)
def all_to_all(senders: int, receivers: int) -> Pattern:
    """Every sender entry to every receiver entry (a window shipped in
    equal shares from its owners to a group)."""

    def build():
        rows, cols = np.divmod(np.arange(senders * receivers), receivers)
        return rows, cols

    return Pattern((senders, receivers), build)


def explicit(shape: tuple[int, int], src, dst, weights=None) -> Pattern:
    """Cells ``src[k] → dst[k]`` over ``shape`` entries, each sender's words
    split in proportion to ``weights`` (evenly when None).  A repeated cell
    is one cell carrying the summed weight."""

    def build():
        s = np.asarray(src, dtype=np.intp)
        w = np.ones(s.size) if weights is None else np.asarray(weights, dtype=np.float64)
        code, at = np.unique(s * shape[1] + np.asarray(dst, dtype=np.intp), return_inverse=True)
        return code // shape[1], code % shape[1], np.bincount(at.ravel(), w, minlength=code.size)

    return Pattern(shape, build)
