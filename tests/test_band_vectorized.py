"""Vectorized band hot spots: equivalence and memory regressions.

Pins the two rewrites that rode along with the batched chase engine:

* :meth:`DistBandMatrix.redistribute` — the searchsorted owner maps must
  charge exactly what the old per-column scan charged, including ragged
  layouts where the column split is uneven, on the live counter store and
  on the scalar oracle;
* the band → tridiagonal → bisection finish with b > 1 — the reduction
  runs in band storage, so its working set stays O((b+2)·n) words instead
  of the dense n².
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup
from repro.dist.banded import DistBandMatrix
from repro.linalg.band_tridiag import band_to_tridiagonal_storage, extract_band
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.matrices import random_banded_symmetric

from tests.helpers import report_mismatches
from tests.scalar_oracle import ENGINES, machine_on


class TestRedistributeRagged:
    def _reference_charges(self, old: DistBandMatrix, new: DistBandMatrix):
        """The pre-vectorization per-column accumulation, verbatim."""
        sends: dict[int, float] = {}
        recvs: dict[int, float] = {}
        w = float(old.b + 1)
        for j in range(old.n):
            src = old.owners_of_cols(j, j + 1)[0]
            dst = new.owners_of_cols(j, j + 1)[0]
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
        got = sturm_bisection_eigenvalues(*band_to_tridiagonal_storage(extract_band(a, 6), 6))
        want = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(got, want, atol=1e-8 * max(1.0, np.abs(want).max()))

    def test_reduction_runs_in_band_storage_memory(self):
        """Peak allocations stay O((b+2)·n) words — far below the dense n²."""
        n, b = 600, 4
        band = extract_band(random_banded_symmetric(n, b, seed=13), b)
        dense_bytes = n * n * 8

        tracemalloc.start()
        sturm_bisection_eigenvalues(*band_to_tridiagonal_storage(band, b))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Band-storage working set is a few (b+2)·n panels plus bisection
        # scratch; a quarter of the dense matrix is a generous ceiling that
        # a dense path (>= n² words) cannot meet.
        assert peak < dense_bytes / 4, f"peak {peak} bytes vs dense {dense_bytes}"
