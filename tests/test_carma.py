"""Tests for CARMA rectangular matrix multiplication (Lemma III.2)."""

import math

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup
from repro.blocks.matmul import carma_matmul
from repro.model.costs import carma_cost
from tests import carma_oracle, chase_digests


def run(p, m, n, k, seed=0, **kw):
    mach = BSPMachine(p)
    r = np.random.default_rng(seed)
    a = r.standard_normal((m, n))
    b = r.standard_normal((n, k))
    c = carma_matmul(mach, mach.world, a, b, **kw)
    return mach, a, b, c


class TestCorrectness:
    @pytest.mark.parametrize("p,m,n,k", [(1, 5, 7, 3), (4, 16, 16, 16), (8, 64, 8, 8),
                                         (8, 8, 64, 8), (8, 8, 8, 64), (16, 33, 17, 9)])
    def test_product_exact(self, p, m, n, k):
        mach, a, b, c = run(p, m, n, k)
        assert np.abs(c - a @ b).max() < 1e-10

    def test_shape_mismatch(self):
        mach = BSPMachine(2)
        with pytest.raises(ValueError):
            carma_matmul(mach, mach.world, np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_nonpositive_memory(self):
        mach = BSPMachine(2)
        with pytest.raises(ValueError):
            carma_matmul(mach, mach.world, np.zeros((2, 2)), np.zeros((2, 2)), memory_words=0)


#: (p, group, m, n, k, memory_words): BFS splits of each dimension, DFS
#: splits (finite budgets), ragged halves and a scattered group
WALKS = [
    (8, None, 64, 8, 8, math.inf), (8, None, 8, 64, 8, math.inf), (8, None, 8, 8, 64, math.inf),
    (16, None, 33, 17, 9, math.inf), (16, None, 16, 96, 16, 200.0), (8, None, 64, 8, 8, 100.0),
    (8, None, 8, 8, 64, 100.0), (16, (7, 2, 11, 4, 9), 24, 40, 16, math.inf), (5, None, 1, 3, 1, math.inf),
]


@pytest.mark.parametrize("redistribute", [True, False])
@pytest.mark.parametrize("p,ranks,m,n,k,memory", WALKS)
def test_walk_charges_the_live_recursion(p, ranks, m, n, k, memory, redistribute):
    """CARMA's charges, walked on shapes, are those of the live recursion
    on array slices (``tests/carma_oracle.py``): per-rank counters and, on a
    spans + metrics machine, span events, buckets and metrics, byte for byte."""
    r = np.random.default_rng(0)
    a, b = r.standard_normal((m, n)), r.standard_normal((n, k))
    for observed in ({}, {"spans": True, "metrics": True}):
        digests = []
        for kernel in (carma_matmul, carma_oracle.carma_matmul):
            mach = BSPMachine(p, **observed)
            group = mach.world if ranks is None else RankGroup(ranks)
            kernel(mach, group, a, b, memory_words=memory, charge_redistribution=redistribute)
            digests.append(chase_digests.machine_digests(mach))
        assert digests[0] == digests[1]


class TestCostProfile:
    def test_work_is_balanced(self):
        mach, *_ = run(8, 64, 64, 64)
        rep = mach.cost()
        assert rep.total_flops >= 2 * 64**3
        assert rep.flop_imbalance < 1.5

    def test_1d_regime_cost(self):
        # Very tall times small: W should be ~ sizes/p, not (mnk/p)^{2/3}.
        p, m, n, k = 8, 1024, 8, 8
        mach, *_ = run(p, m, n, k)
        pred = carma_cost(m, n, k, p)
        assert mach.cost().W <= 6 * pred.W

    def test_3d_regime_cost(self):
        # Cube on many processors: the (mnk/p)^{2/3} term dominates.
        p, m, n, k = 64, 64, 64, 64
        mach, *_ = run(p, m, n, k)
        pred = carma_cost(m, n, k, p)
        assert mach.cost().W <= 8 * pred.W

    def test_supersteps_logarithmic(self):
        mach, *_ = run(64, 128, 128, 128)
        assert mach.cost().S <= 10 * math.log2(64)

    def test_no_redistribution_charge_option(self):
        m1, *_ = run(8, 32, 32, 32, charge_redistribution=True)
        m2, *_ = run(8, 32, 32, 32, charge_redistribution=False)
        assert m1.cost().W > m2.cost().W

    def test_memory_pressure_triggers_dfs(self):
        # A tight memory budget must raise W and S (the v-tradeoff) while
        # keeping the product exact.
        p, m, n, k = 8, 64, 64, 64
        mach_free, a, b, c_free = run(p, m, n, k)
        budget = (m * n + n * k + m * k) / p * 1.2
        mach_tight, _, _, c_tight = run(p, m, n, k, memory_words=budget)
        assert np.abs(c_tight - a @ b).max() < 1e-10
        assert mach_tight.cost().W > mach_free.cost().W
        assert mach_tight.cost().S >= mach_free.cost().S

    def test_single_rank_has_no_communication(self):
        mach, *_ = run(1, 32, 16, 8)
        assert mach.cost().W == 0.0
        assert mach.cost().flops >= 2 * 32 * 16 * 8
