"""Vectorized band-container hot spots: equivalence and memory regressions.

Pins the three container-level rewrites that rode along with the batched
chase engine:

* :meth:`SymmetricBand.window` — one fancy-indexed gather must equal the
  old per-element double loop on every window shape, including windows
  crossing the band edge and clipped at the matrix border;
* :meth:`DistBandMatrix.redistribute` — the searchsorted owner maps must
  charge exactly what the old per-column scan charged, including ragged
  layouts where the column split is uneven, on the live counter store and
  on the scalar oracle;
* :meth:`SymmetricBand.eigenvalues` with b > 1 — the reduction now runs in
  band storage, so its working set stays O((b+2)·n) words instead of the
  dense n² that to_dense() needed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench import report_mismatches
from repro.bsp import BSPMachine, RankGroup
from repro.dist.banded import DistBandMatrix
from repro.linalg.band import SymmetricBand
from repro.util.matrices import random_banded_symmetric
from tests.scalar_oracle import ENGINES, machine_on


def window_reference(band: SymmetricBand, rows: slice, cols: slice) -> np.ndarray:
    """The pre-vectorization per-element double loop, verbatim."""
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    for a, i in enumerate(range(rows.start, rows.stop)):
        for b, j in enumerate(range(cols.start, cols.stop)):
            out[a, b] = band[i, j]
    return out


class TestWindowEquivalence:
    @pytest.mark.parametrize(
        "rows,cols",
        [
            (slice(0, 6), slice(0, 6)),       # top-left corner
            (slice(10, 18), slice(10, 18)),   # diagonal block, inside band
            (slice(10, 18), slice(2, 10)),    # sub-diagonal, crosses band edge
            (slice(2, 10), slice(10, 18)),    # super-diagonal (transposed read)
            (slice(0, 24), slice(20, 24)),    # tall sliver to the border
            (slice(23, 24), slice(0, 24)),    # single row across everything
            (slice(5, 5), slice(0, 4)),       # empty row range
        ],
    )
    def test_matches_double_loop(self, rows, cols):
        a = random_banded_symmetric(24, 5, seed=11)
        band = SymmetricBand.from_dense(a, 5)
        assert np.array_equal(band.window(rows, cols), window_reference(band, rows, cols))

    def test_matches_dense_submatrix(self):
        a = random_banded_symmetric(30, 7, seed=3)
        band = SymmetricBand.from_dense(a, 7)
        rows, cols = slice(4, 19), slice(9, 27)
        assert np.allclose(band.window(rows, cols), a[rows, cols])

    def test_far_off_band_window_is_zero(self):
        band = SymmetricBand.from_dense(random_banded_symmetric(24, 3, seed=0), 3)
        assert np.array_equal(band.window(slice(20, 24), slice(0, 4)), np.zeros((4, 4)))


class TestRedistributeRagged:
    def _reference_charges(self, old: DistBandMatrix, new: DistBandMatrix):
        """The pre-vectorization per-column accumulation, verbatim."""
        sends: dict[int, float] = {}
        recvs: dict[int, float] = {}
        w = float(old.b + 1)
        for j in range(old.n):
            src = old.owner_of_col(j)
            dst = new.owner_of_col(j)
            if src != dst:
                sends[src] = sends.get(src, 0.0) + w
                recvs[dst] = recvs.get(dst, 0.0) + w
        return sends, recvs

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "n,p,old_size,new_size",
        [
            (29, 8, 8, 3),   # ragged everywhere: 29 cols over 8 then 3 ranks
            (31, 8, 5, 7),   # grow the group, both splits uneven
            (16, 8, 4, 4),   # same size, shifted rank sets
            (7, 8, 8, 2),    # more ranks than columns: zero-width blocks
        ],
    )
    def test_charges_match_per_column_scan(self, engine, n, p, old_size, new_size):
        a = random_banded_symmetric(n, 3, seed=n)
        machine = machine_on(engine, p)
        old_group = machine.world.take(old_size)
        new_group = RankGroup(tuple(range(p - new_size, p)))
        band = DistBandMatrix(machine, a, 3, old_group)
        before_sent = machine.counters.field_array("words_sent").copy()
        before_recv = machine.counters.field_array("words_recv").copy()
        new_band = band.redistribute(new_group)

        sends, recvs = self._reference_charges(band, new_band)
        got_sent = machine.counters.field_array("words_sent") - before_sent
        got_recv = machine.counters.field_array("words_recv") - before_recv
        want_sent = np.zeros(p)
        want_recv = np.zeros(p)
        for r, v in sends.items():
            want_sent[r] = v
        for r, v in recvs.items():
            want_recv[r] = v
        assert np.array_equal(got_sent, want_sent)
        assert np.array_equal(got_recv, want_recv)
        # conservation: every moved word is sent once and received once
        assert got_sent.sum() == got_recv.sum()

    def test_engines_identical_on_ragged_layout(self):
        a = random_banded_symmetric(29, 3, seed=29)
        reports = {}
        for engine in ENGINES:
            machine = machine_on(engine, 8)
            band = DistBandMatrix(machine, a.copy(), 3, machine.world.take(8))
            band.redistribute(machine.world.take(3))
            reports[engine] = machine.cost()
        assert report_mismatches(reports["array"], reports["scalar"]) == []


class TestBandEigenvaluesMemory:
    def test_wide_band_eigenvalues_match_numpy(self):
        a = random_banded_symmetric(120, 6, seed=8)
        band = SymmetricBand.from_dense(a, 6)
        got = band.eigenvalues()
        want = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(got, want, atol=1e-8 * max(1.0, np.abs(want).max()))

    def test_reduction_runs_in_band_storage_memory(self):
        """Peak allocations stay O((b+2)·n) words — far below the dense n²
        the old to_dense() path materialized."""
        n, b = 600, 4
        a = random_banded_symmetric(n, b, seed=13)
        band = SymmetricBand.from_dense(a, b)
        dense_bytes = n * n * 8

        tracemalloc.start()
        band.eigenvalues()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Band-storage working set is a few (b+2)·n panels plus bisection
        # scratch; a quarter of the dense matrix is a generous ceiling that
        # the old dense path (>= n² words) cannot meet.
        assert peak < dense_bytes / 4, f"peak {peak} bytes vs dense {dense_bytes}"
