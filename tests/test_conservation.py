"""Conservation and accounting invariants across the whole stack.

Words sent must equal words received, globally, for every algorithm — a
whole-system check that no charge path books one side of a transfer without
the other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp import BSPMachine, RankGroup, collectives
from repro.dist.banded import DistBandMatrix
from repro.eig import (
    band_to_band_2p5d,
    eigensolve_2p5d,
    eigensolve_elpa_like,
    eigensolve_scalapack_like,
)
from repro.eig.full_to_band import full_to_band_2p5d
from repro.dist.grid import ProcGrid
from repro.util.matrices import random_banded_symmetric, random_symmetric


def sent_recv(machine):
    return (
        sum(c.words_sent for c in machine.counters),
        sum(c.words_recv for c in machine.counters),
    )


def assert_balanced(machine, rel=0.35):
    """Global sent ≈ global recv.

    Exact equality holds for point-to-point patterns; tree/two-phase
    collectives book slightly different send/recv shares per rank by
    design, so a tolerance applies.
    """
    s, r = sent_recv(machine)
    if s == r == 0:
        return
    assert abs(s - r) <= rel * max(s, r), (s, r)


class TestCollectiveConservation:
    @given(
        g=st.integers(2, 16),
        words=st.floats(1.0, 1e6),
        which=st.sampled_from(["bcast", "allreduce"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_collective_balanced(self, g, words, which):
        m = BSPMachine(g)
        getattr(collectives, which)(m, m.world, words=words)
        assert_balanced(m)


class TestAlgorithmConservation:
    def test_full_to_band(self):
        m = BSPMachine(16)
        full_to_band_2p5d(m, ProcGrid(m, (2, 2, 4)), random_symmetric(64, 1), 8)
        assert_balanced(m)

    def test_band_to_band(self):
        m = BSPMachine(8)
        a = random_banded_symmetric(64, 8, seed=2)
        band_to_band_2p5d(m, DistBandMatrix(m, a, 8, m.world), k=2)
        assert_balanced(m)

    @pytest.mark.parametrize("p", [4, 16])
    def test_complete_driver(self, p):
        m = BSPMachine(p)
        eigensolve_2p5d(m, random_symmetric(48, 3))
        assert_balanced(m)

    def test_baselines(self):
        for fn in (eigensolve_scalapack_like, eigensolve_elpa_like):
            m = BSPMachine(16)
            fn(m, random_symmetric(48, 4))
            assert_balanced(m)

    def test_no_negative_counters_anywhere(self):
        m = BSPMachine(8)
        eigensolve_2p5d(m, random_symmetric(40, 5))
        for c in m.counters:
            assert c.flops >= 0
            assert c.words_sent >= 0
            assert c.words_recv >= 0
            assert c.mem_traffic >= 0
            assert c.supersteps >= 0
            assert c.peak_memory_words >= 0
