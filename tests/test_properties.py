"""Property-based tests of cross-cutting invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bsp import BSPMachine
from repro.blocks.matmul import carma_matmul
from repro.eig.driver import eigensolve_2p5d
from repro.util.matrices import random_banded_symmetric, random_symmetric
from repro.util.validation import matrix_bandwidth

from tests.helpers import eig_err
from tests.sbr_oracle import band_reduce_seq, full_to_band_seq


@given(n=st.integers(8, 40), p=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_eigensolver_preserves_spectrum(n, p, seed):
    """The headline invariant: for any size/machine, eigenvalues match."""
    if n < p:
        return
    a = random_symmetric(n, seed=seed)
    res = eigensolve_2p5d(BSPMachine(p), a)
    assert eig_err(a, res.eigenvalues) < 1e-7


@given(
    n=st.integers(10, 36),
    b=st.integers(2, 10),
    h=st.integers(1, 9),
    seed=st.integers(0, 100),
)
@settings(max_examples=25, deadline=None)
def test_band_reduction_invariants(n, b, h, seed):
    """Any (n, b, h) with 1 <= h < b < n: band-width h, same spectrum."""
    if not (1 <= h < b < n):
        return
    a = random_banded_symmetric(n, b, seed=seed)
    out = band_reduce_seq(a, b, h)
    assert matrix_bandwidth(out) <= h
    assert np.abs(out - out.T).max() < 1e-10
    assert eig_err(a, out) < 1e-8


@given(n=st.integers(6, 32), b=st.integers(1, 10), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_full_to_band_invariants(n, b, seed):
    if b >= n:
        return
    a = random_symmetric(n, seed=seed)
    out = full_to_band_seq(a, b)
    assert matrix_bandwidth(out) <= b
    assert eig_err(a, out) < 1e-8


@given(
    m=st.integers(1, 32),
    n=st.integers(1, 32),
    k=st.integers(1, 32),
    p=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=25, deadline=None)
def test_carma_cost_invariants(m, n, k, p):
    """CARMA must be exact, work-efficient, and conserve send == recv."""
    mach = BSPMachine(p)
    r = np.random.default_rng(m * 1000 + n * 10 + k)
    a = r.standard_normal((m, n))
    b = r.standard_normal((n, k))
    c = carma_matmul(mach, mach.world, a, b)
    assert np.abs(c - a @ b).max() < 1e-9 * max(1.0, np.abs(a @ b).max())
    rep = mach.cost()
    total_sent = sum(mach.counters.words_sent.tolist())
    total_recv = sum(mach.counters.words_recv.tolist())
    assert abs(total_sent - total_recv) < 1e-6 * max(1.0, total_sent)
    assert rep.total_flops >= 2.0 * m * n * k


@given(p=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_cost_report_consistency(p, seed):
    """Max-over-ranks never exceeds the rank totals; S is an integer; memory
    peak is monotone."""
    a = random_symmetric(max(p, 24), seed=seed)
    mach = BSPMachine(p)
    eigensolve_2p5d(mach, a)
    rep = mach.cost()
    assert rep.flops <= rep.total_flops + 1e-9
    assert rep.words <= rep.total_words + 1e-9
    assert rep.supersteps == int(rep.supersteps)
    assert rep.peak_memory_words >= 0
    assert (mach.counters.supersteps <= rep.supersteps).all()
