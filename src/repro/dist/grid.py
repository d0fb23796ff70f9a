"""N-dimensional processor grids over machine ranks.

The paper's 2.5D algorithms use q×q×c grids (q = p^{1−δ}, c = p^{2δ−1});
Algorithm III.1 addresses layers Π[:, :, l], Algorithm IV.1 hands panels to
sub-grids Π[:, 1:z, :], and Algorithm IV.3 shrinks the active grid between
band-reduction stages.  :class:`ProcGrid` supports all of these as views
over an ordered rank set.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.util.validation import check_delta, check_positive_int


def factor_2p5d(p: int, delta: float) -> tuple[int, int]:
    """Choose (q, c) with q²·c = p approximating q = p^{1−δ}, c = p^{2δ−1}.

    Searches the divisors of p for the c closest to p^{2δ−1} such that p/c
    is a perfect square — the shape the 2.5D algorithms need.  δ = 1/2 gives
    (√p, 1); δ = 2/3 gives (p^{1/3}, p^{1/3}).
    """
    check_positive_int(p, "p")
    check_delta(delta)
    target_c = p ** (2.0 * delta - 1.0)
    best: tuple[float, int, int] | None = None
    for c in range(1, p + 1):
        if p % c:
            continue
        q = int(round(np.sqrt(p // c)))
        if q * q * c != p:
            continue
        score = abs(np.log(c) - np.log(target_c)) if target_c > 0 else float(c)
        if best is None or score < best[0]:
            best = (score, q, c)
    if best is None:
        raise ValueError(f"p={p} admits no q*q*c factorization")
    return best[1], best[2]


class ProcGrid:
    """A logical grid of machine ranks (row-major coordinate order).

    ``shape`` may have any number of dimensions; the paper uses (q, q) and
    (q, q, c).  The grid does not own the machine's ranks — several grids
    may coexist (e.g. the shrinking grids of Algorithm IV.3).
    """

    def __init__(self, machine, shape: tuple[int, ...], ranks: RankGroup | None = None):
        self.machine = machine
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"grid shape must be positive, got {shape}")
        size = int(np.prod(self.shape))
        if ranks is None:
            if size > machine.p:
                raise ValueError(f"grid of {size} ranks exceeds machine size {machine.p}")
            ranks = RankGroup(tuple(range(size)))
        if ranks.size != size:
            raise ValueError(f"grid shape {shape} needs {size} ranks, got {ranks.size}")
        machine.check_group(ranks)
        self.ranks = ranks

    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self.ranks.size

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def rank_at(self, *coords: int) -> int:
        """Global machine rank at the given grid coordinates."""
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        flat = 0
        for c, s in zip(coords, self.shape):
            if not 0 <= c < s:
                raise ValueError(f"coordinate {c} out of range [0, {s})")
            flat = flat * s + c
        return self.ranks[flat]

    def group(self) -> RankGroup:
        """All ranks of the grid as a group."""
        return self.ranks

    # ------------------------------------------------------------------ #
    # views

    def subgrid(self, *slices: slice) -> "ProcGrid":
        """A rectangular sub-grid, e.g. Π[:, 0:z, :] of Algorithm IV.1."""
        if len(slices) != self.ndim:
            raise ValueError(f"expected {self.ndim} slices")
        axes = [range(*sl.indices(s)) for sl, s in zip(slices, self.shape)]
        coords = np.meshgrid(*axes, indexing="ij")
        flat_coords = np.stack([c.ravel() for c in coords], axis=1)
        sel = tuple(self.rank_at(*row) for row in flat_coords)
        new_shape = tuple(len(a) for a in axes)
        return ProcGrid(self.machine, new_shape, RankGroup(sel))

    def __repr__(self) -> str:
        return f"ProcGrid(shape={self.shape}, ranks=[{self.ranks[0]}..{self.ranks[-1]}])"
