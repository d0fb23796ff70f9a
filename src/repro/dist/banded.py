"""Distributed symmetric band matrices.

The band-reduction stages (Algorithm IV.2, CA-SBR) operate on a symmetric
matrix of band-width ``b`` stored as its band only ((b+1)·n words) and
distributed in 1-D contiguous column-panels: group ``Π̂_j`` owns columns
``[(j−1)·n/g, j·n/g)`` (the paper assigns panels of ``b`` columns to groups
of ``p̂ = pb/n`` ranks, which is the same partition).

The numerical content is a global dense array (window reads/writes
during bulge chasing are cheap and exact), while column ownership drives
the communication accounting.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.batch import ChargeLog
from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import explicit, fan_in
from repro.util.intlog import chunk_offsets, split_evenly
from repro.util.validation import check_symmetric


class DistBandMatrix:
    """Symmetric band-``b`` matrix, columns block-distributed over a group."""

    def __init__(self, machine: BSPMachine, data: np.ndarray, bandwidth: int, group: RankGroup):
        self.machine = machine
        self.data = check_symmetric(data, "band matrix")
        self.n = self.data.shape[0]
        if not 0 <= bandwidth < self.n:
            raise ValueError(f"bandwidth must be in [0, n-1], got {bandwidth}")
        self.b = int(bandwidth)
        self.group = group
        machine.check_group(group)
        sizes = split_evenly(self.n, group.size)
        self._col_starts = np.array(chunk_offsets(sizes) + [self.n], dtype=np.int64)
        self._ranks_arr = np.array(group.ranks, dtype=np.int64)
        # Band storage words per rank: (b+1) words per owned column.
        machine.note_memory(group, (self.b + 1.0) * np.asarray(sizes, dtype=np.float64))

    # ------------------------------------------------------------------ #

    @property
    def words(self) -> int:
        """Total stored words of the band."""
        return (self.b + 1) * self.n

    def owner_of_col(self, j: int) -> int:
        """Rank owning column j."""
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} out of range")
        blk = int(np.searchsorted(self._col_starts, j, side="right") - 1)
        return self.group[blk]

    def owners_of_cols(self, j0: int, j1: int) -> RankGroup:
        """Distinct ranks owning columns [j0, j1)."""
        if j1 <= j0:
            return RankGroup(())
        # Owning blocks are a contiguous run; two searchsorteds replace the
        # old O(j1−j0) per-column scan.  Zero-width blocks inside the run
        # (possible when group.size > n) own no columns and are dropped.
        lo = int(np.searchsorted(self._col_starts, j0, side="right")) - 1
        hi = int(np.searchsorted(self._col_starts, j1 - 1, side="right")) - 1
        blks = np.arange(lo, hi + 1)
        widths = self._col_starts[blks + 1] - self._col_starts[blks]
        return RankGroup(tuple(int(r) for r in self._ranks_arr[blks[widths > 0]]))

    # ------------------------------------------------------------------ #
    # data motion

    def _window_words(self, rows: slice, cols: slice) -> float:
        """A window's *actual content* — the stored band plus any live bulge
        fill, measured as its nonzero count (a distributed band never ships
        the zeros outside its structure)."""
        window = self.data[rows, cols]
        return float(max(int(np.count_nonzero(window)), min(window.size, 1)))

    def fetch_window(
        self, log: ChargeLog, rows: slice, cols: slice, to_group: RankGroup, tag: str = "fetch"
    ) -> np.ndarray:
        """Bring the window B[rows, cols] onto ``to_group``.

        Charges (to ``log``): the owners of the window's columns send its
        content, each member of ``to_group`` receives its 1/|group| share.
        One superstep.
        """
        owners = self.owners_of_cols(cols.start, cols.stop)
        log.transfer(owners, to_group, self._window_words(rows, cols))
        window = self.data[rows, cols].copy()
        if self.machine.faults.enabled:
            self.machine.faults.corrupt_window(window, f"fetch_window:{tag}")
        return window

    def charge_store(self, log: ChargeLog, rows: slice, cols: slice, from_group: RankGroup) -> None:
        """Charge the write-back of a window from ``from_group`` to the
        owners of its columns (dual of :meth:`fetch_window`), without
        touching the data — callers that update ``data`` in place use this."""
        owners = self.owners_of_cols(cols.start, cols.stop)
        log.transfer(from_group, owners, self._window_words(rows, cols))

    def store_window(
        self, log: ChargeLog, rows: slice, cols: slice, values: np.ndarray,
        from_group: RankGroup,
    ) -> None:
        """Write back a dense window from ``from_group`` to the owners.

        Symmetric counterpart of :meth:`fetch_window` (dual communication).
        The symmetric mirror B[cols, rows] is updated too (the band stores
        one triangle; mirroring is free).
        """
        if values.shape != (rows.stop - rows.start, cols.stop - cols.start):
            raise ValueError("window shape mismatch")
        self.data[rows, cols] = values
        self.data[cols, rows] = values.T
        self.charge_store(log, rows, cols, from_group)

    def gather(self, target: int, tag: str = "band_gather") -> np.ndarray:
        """Collect the whole band on one rank (end of Algorithm IV.3)."""
        senders = self._ranks_arr != target
        sent = ((self.b + 1) * np.diff(self._col_starts)[senders]).astype(np.float64)
        group = RankGroup(tuple(dict.fromkeys(list(self.group) + [target])))
        self.machine.charge_comm(self._ranks_arr[senders], sent, target, float(sent.sum()),
                                 pattern=fan_in(int(senders.sum())))
        self.machine.superstep(group, 1)
        self.machine.note_memory(target, float(self.words))
        if self.machine.faults.enabled:
            # NOTE: gather returns the live array, so a flip here corrupts
            # the band itself — exactly the failure the finish stage's
            # checkpoint + tridiagonal guard must catch and roll back.
            self.machine.faults.corrupt_window(self.data, f"band_gather:{tag}")
        return self.data

    def redistribute(self, new_group: RankGroup) -> "DistBandMatrix":
        """Re-partition the columns over a (possibly smaller) group.

        Used between stages of Algorithm IV.3 ("Gather B onto Π̄"): charges
        each source rank the words whose owner changes.
        """
        new = DistBandMatrix(self.machine, self.data, self.b, new_group)
        old_starts, new_starts = self._col_starts, new._col_starts
        # Vectorized owner maps: one array searchsorted per layout instead of
        # a scalar searchsorted per column.  Each moved column contributes
        # the same integer-valued w = b+1, so per-rank counts × w equals the
        # old per-column accumulation bit-for-bit (exact float integers).
        cols = np.arange(self.n)
        src = self._ranks_arr[np.searchsorted(old_starts, cols, side="right") - 1]
        dst = new._ranks_arr[np.searchsorted(new_starts, cols, side="right") - 1]
        mask = src != dst
        w = float(self.b + 1)
        src_ranks, src_at, src_counts = np.unique(src[mask], return_inverse=True, return_counts=True)
        dst_ranks, dst_at, dst_counts = np.unique(dst[mask], return_inverse=True, return_counts=True)
        involved = RankGroup(tuple(dict.fromkeys(list(self.group) + list(new_group))))
        # every moved column goes from its old owner to its new one
        self.machine.charge_comm(
            src_ranks, src_counts * w, dst_ranks, dst_counts * w,
            pattern=explicit((src_ranks.size, dst_ranks.size), src_at, dst_at),
        )
        self.machine.superstep(involved, 1)
        return new
