"""Distributed dense matrices (global data + layout + machine accounting).

A :class:`DistMatrix` holds the matrix contents as one numpy array (the
orchestrated-simulation convention) together with the layout describing
which virtual rank owns each element.  Every relayout / replication / gather
charges the machine the per-rank word counts the distributed program would
move, computed from the actual owner maps — measured, not modeled.
"""

from __future__ import annotations

import numpy as np

from repro.bsp import collectives
from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.dist.grid import ProcGrid
from repro.dist.layout import (
    CyclicLayout,
    Layout,
    ReplicatedLayout,
    transfer_histogram,
)


class DistMatrix:
    """An m×n matrix distributed over a simulated machine."""

    def __init__(self, machine: BSPMachine, data: np.ndarray, layout: Layout):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"DistMatrix requires 2-D data, got shape {data.shape}")
        if data.shape != (layout.m, layout.n):
            raise ValueError(f"data shape {data.shape} does not match layout ({layout.m}, {layout.n})")
        self.machine = machine
        self.data = data
        self.layout = layout
        self._note_footprint()

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def from_global(
        cls,
        machine: BSPMachine,
        data: np.ndarray,
        layout: Layout,
        charge_distribution: bool = False,
    ) -> "DistMatrix":
        """Wrap a global array as a distributed matrix.

        With ``charge_distribution=True``, charges the cost of moving from a
        generic evenly-distributed layout into ``layout`` (the paper's inputs
        arrive "in any load-balanced layout"): every rank sends and receives
        at most its local share, in one superstep.
        """
        mat = cls(machine, data, layout)
        if charge_distribution:
            group = layout.ranks()
            share = data.size / max(1, group.size)
            machine.charge_comm_batch(group, share, share)
            machine.superstep(group, 1)
        return mat

    @classmethod
    def cyclic(
        cls, machine: BSPMachine, data: np.ndarray, grid: ProcGrid, charge_distribution: bool = False
    ) -> "DistMatrix":
        """Element-cyclic distribution over a 2-D grid."""
        m, n = data.shape
        return cls.from_global(machine, data, CyclicLayout(grid, m, n), charge_distribution)

    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def is_replicated(self) -> bool:
        return isinstance(self.layout, ReplicatedLayout)

    def _note_footprint(self) -> None:
        p = self.machine.p
        if isinstance(self.layout, ReplicatedLayout):
            for lay in self.layout.copies:
                wpr = lay.words_per_rank(p)
                for r in lay.ranks():
                    self.machine.note_memory(r, float(wpr[r]))
        else:
            wpr = self.layout.words_per_rank(p)
            for r in self.layout.ranks():
                self.machine.note_memory(r, float(wpr[r]))

    # ------------------------------------------------------------------ #
    # data motion (all charge the machine)

    def replicate(self, layer_grids: list[ProcGrid], tag: str = "replicate") -> "DistMatrix":
        """Replicate onto each layer grid (cyclic layout per layer).

        Implemented as an allgather over each replication fiber: with the
        source spread over all p ranks, each rank of each layer ends holding
        its layer-local share — cost O(local share) per rank, one superstep,
        matching the O(n²/p^{2(1−δ)}) replication cost in Lemma IV.1's proof.
        """
        m, n = self.shape
        layouts = [CyclicLayout(g, m, n) for g in layer_grids]
        c = len(layouts)
        if c == 0:
            raise ValueError("need at least one layer grid")
        # Per-rank words after replication (what each rank must receive,
        # minus what it already holds under the current layout).
        p = self.machine.p
        have = (
            sum(lay.words_per_rank(p) for lay in self.layout.copies)
            if isinstance(self.layout, ReplicatedLayout)
            else self.layout.words_per_rank(p)
        )
        group_ranks: list[int] = []
        sends: dict[int, float] = {}
        recvs: dict[int, float] = {}
        for lay in layouts:
            wpr = lay.words_per_rank(p)
            for r in lay.ranks():
                need = max(0.0, float(wpr[r] - have[r]))
                recvs[r] = recvs.get(r, 0.0) + need
                # Senders: symmetric volume, spread over current owners.
                group_ranks.append(r)
        src_group = self.layout.ranks()
        total_recv = sum(recvs.values())
        for r in src_group:
            sends[r] = sends.get(r, 0.0) + total_recv / src_group.size
        all_ranks = RankGroup(tuple(dict.fromkeys(list(src_group) + group_ranks)))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(all_ranks, 1)
        new_layout = ReplicatedLayout(layouts[0], layouts[1:])
        return DistMatrix(self.machine, self.data, new_layout)

    def redistribute(self, new_layout: Layout) -> "DistMatrix":
        """Move to a new layout; charges the actual owner-change histogram."""
        src = self.layout.primary if isinstance(self.layout, ReplicatedLayout) else self.layout
        transfers = transfer_histogram(src, new_layout, self.machine.p)
        involved = RankGroup(
            tuple(dict.fromkeys(list(src.ranks()) + list(new_layout.ranks())))
        )
        collectives.alltoall(self.machine, involved, transfers)
        return DistMatrix(self.machine, self.data, new_layout)

    def gather(self, target: int, tag: str = "gather") -> np.ndarray:
        """Collect the whole matrix on one rank; returns the global array."""
        src = self.layout.primary if isinstance(self.layout, ReplicatedLayout) else self.layout
        p = self.machine.p
        wpr = src.words_per_rank(p)
        sends = {r: float(wpr[r]) for r in src.ranks() if r != target and wpr[r] > 0}
        recvs = {target: float(sum(sends.values()))}
        group = RankGroup(tuple(dict.fromkeys(list(src.ranks()) + [target])))
        self.machine.charge_comm(sends=sends, recvs=recvs)
        self.machine.superstep(group, 1)
        self.machine.note_memory(target, float(self.data.size))
        return self.data

    # ------------------------------------------------------------------ #
    # views

    def submatrix(self, roff: int, coff: int, m: int, n: int) -> "DistMatrix":
        """Zero-communication view of a sub-block (ownership preserved)."""
        if roff < 0 or coff < 0 or roff + m > self.shape[0] or coff + n > self.shape[1]:
            raise ValueError("submatrix out of range")
        return DistMatrix(
            self.machine,
            self.data[roff : roff + m, coff : coff + n],
            self.layout.subview(roff, coff, m, n),
        )

    def local_words(self, rank: int) -> int:
        """Words of this matrix stored by ``rank`` (primary copy)."""
        src = self.layout.primary if isinstance(self.layout, ReplicatedLayout) else self.layout
        return int(src.words_per_rank(self.machine.p)[rank])

    def __repr__(self) -> str:
        rep = f" x{self.layout.n_copies}" if self.is_replicated else ""
        return f"DistMatrix({self.shape[0]}x{self.shape[1]}{rep}, {type(self.layout).__name__})"
