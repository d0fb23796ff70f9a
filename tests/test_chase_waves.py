"""Stacked chase waves: one QR and one two-sided update per pipeline phase.

:func:`repro.linalg.sbr.apply_chase_step` runs a whole phase of Algorithm
IV.2 — first every QR, then every window update, each stacked across the
phase's steps — and :func:`repro.linalg.householder.compact_wy_qr` factors
a stack of blocks in one call.  The contract is **bit-identity** with the
one-step-at-a-time engine kept in ``tests/sbr_oracle.py``: per block for the
QR, per matrix for a whole reduction, per stage for CA-SBR and Lang's h = 1
reduction.  The schedule rule that makes the two-stage order safe is
checked structurally, and a negative control shows the order matters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.eig.ca_sbr import band_to_tridiagonal_1d, ca_sbr_reduce
from repro.eig.schedule import chase_step_arrays, chase_waves, phase_steps, schedule_checks
from repro.linalg.householder import compact_wy_qr, compact_wy_qr_general, householder_vector
from repro.linalg.sbr import apply_chase_step, chase_steps
from repro.util.matrices import random_banded_symmetric
from tests import sbr_oracle
from tests.sbr_oracle import band_reduce_seq

NS = (8, 16, 37, 64, 97, 130, 256)
#: (b, h): halvings, k = 3, Lang's h = 1, a wide band, and the shapes
#: ``ca_sbr_reduce``'s h = max(target, b // 2) makes beside halvings: h > b/2
#: (finish_wide's 32 → 24) and h not dividing b (odd b, and b = 12 → 5)
PAIRS = ((8, 4), (4, 2), (16, 8), (6, 3), (12, 4), (8, 1), (32, 16),
         (32, 24), (7, 3), (5, 2), (12, 5))
SHAPES = [(n, b, h) for n in NS for b, h in PAIRS if b < n and (n < 256 or b >= 8)]


def _equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Bit-for-bit equality (signed zeros included)."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _waves_in_place(a: np.ndarray, b: int, h: int) -> np.ndarray:
    for wave in chase_waves(a.shape[0], b, h):
        apply_chase_step(a, wave)
    return a


# ------------------------------------------------------------------ #
# the stacked QR


def _blocks(rng: np.random.Generator, m: int, n: int) -> list[np.ndarray]:
    """Dense, already-triangular (zero tails), zero-column and −0.0-led blocks."""
    dense = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
    tri = np.triu(rng.standard_normal((m, n)))
    holes = dense.copy()
    holes[:, 0] = 0.0
    holes[rng.random((m, n)) < 0.3] = 0.0
    signed = dense.copy()
    signed[0, 0] = -0.0
    signed[1:, 0] = 0.0
    return [dense, tri, holes, signed]


@pytest.mark.parametrize("m", [1, 2, 4, 7, 16, 33])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_qr_matches_the_scalar_oracle_bit_for_bit(m, n):
    """A 2-D call is the parent's scalar loop; a stack is that, per item."""
    rng = np.random.default_rng(m * 100 + n)
    blocks = _blocks(rng, m, n)
    for blk in blocks:
        want = sbr_oracle.compact_wy_qr_general(blk)
        got = compact_wy_qr_general(blk)
        assert all(_equal(g, w) for g, w in zip(got, want))
        if m >= n:
            assert all(_equal(g, w) for g, w in zip(compact_wy_qr(blk), want))
    stack = np.stack(blocks + [rng.standard_normal((m, n))])
    got = compact_wy_qr_general(stack)
    for k, blk in enumerate(stack):
        want = sbr_oracle.compact_wy_qr_general(blk)
        assert all(_equal(g[k], w) for g, w in zip(got, want)), k


def test_qr_stack_keeps_leading_axes_and_rejects_wide():
    a = np.random.default_rng(0).standard_normal((2, 3, 9, 4))
    u, t, r = compact_wy_qr(a)
    assert (u.shape, t.shape, r.shape) == ((2, 3, 9, 4), (2, 3, 4, 4), (2, 3, 4, 4))
    assert _equal(r[1, 2], compact_wy_qr(a[1, 2])[2])
    with pytest.raises(ValueError):
        compact_wy_qr(np.zeros((2, 3, 5)))


@pytest.mark.parametrize("size", range(1, 40))
def test_householder_vector_matches_the_scalar_oracle(size):
    rng = np.random.default_rng(size)
    for x in (rng.standard_normal(size) * 10.0 ** rng.integers(-5, 6), np.r_[-0.0, np.zeros(size - 1)]):
        v0, tau0, beta0 = sbr_oracle.householder_vector(x)
        v1, tau1, beta1 = householder_vector(x)
        assert _equal(v1, v0) and np.float64(tau1).tobytes() == np.float64(tau0).tobytes()
        assert np.float64(beta1).tobytes() == np.float64(beta0).tobytes()


# ------------------------------------------------------------------ #
# the wave engine against the per-step oracle


@pytest.mark.parametrize("n,b,h", SHAPES)
def test_wave_engine_equals_per_step_oracle(n, b, h):
    a = random_banded_symmetric(n, b, seed=n + 7 * b + h)
    assert _equal(_waves_in_place(a.copy(), b, h), sbr_oracle.chase_all(a.copy(), b, h))


@pytest.mark.parametrize("n,b,h", [(64, 8, 4), (97, 6, 3), (130, 8, 1), (77, 12, 4)])
def test_band_reduce_seq_equals_per_step_oracle(n, b, h):
    a = random_banded_symmetric(n, b, seed=n)
    want = sbr_oracle.chase_all(a.copy(), b, h)
    assert _equal(band_reduce_seq(a, b, h), (want + want.T) / 2.0)


def _oracle_stage(a: np.ndarray, b: int, target: int) -> np.ndarray:
    """The numerics of ``_run_chases_1d``, one chase step at a time."""
    while b > target:
        h = max(target, b // 2)
        a = sbr_oracle.chase_all(a, b, h)
        a[:] = (a + a.T) / 2.0
        b = h
    return a


@pytest.mark.parametrize(
    "n,b,target", [(64, 16, 2), (97, 12, 3), (130, 8, 1), (256, 16, 4), (130, 32, 24), (97, 13, 5)]
)
def test_ca_sbr_reduce_equals_per_step_oracle(n, b, target):
    a = random_banded_symmetric(n, b, seed=b)
    m = BSPMachine(4)
    out = ca_sbr_reduce(m, DistBandMatrix(m, a.copy(), b, m.world), target)
    assert out.b == target
    assert _equal(out.data, _oracle_stage(a.copy(), b, target))


@pytest.mark.parametrize("n,b", [(37, 6), (64, 8), (97, 12)])
def test_band_to_tridiagonal_1d_equals_per_step_oracle(n, b):
    a = random_banded_symmetric(n, b, seed=n)
    m = BSPMachine(4)
    out = band_to_tridiagonal_1d(m, DistBandMatrix(m, a.copy(), b, m.world))
    want = sbr_oracle.chase_all(a.copy(), b, 1)
    assert _equal(out.data, (want + want.T) / 2.0)


def _phase_major(a: np.ndarray, b: int, h: int, descending: bool) -> np.ndarray:
    """Per-step oracle, one phase after another, panels in the given order."""
    steps = chase_steps(a.shape[0], b, h)
    for idx in phase_steps(a.shape[0], b, h):
        for s in (idx[::-1] if descending else idx):
            sbr_oracle.apply_chase_step(a, steps[s])
    return a


@pytest.mark.parametrize("n,b,h", [(64, 8, 4), (96, 16, 8), (97, 6, 3), (130, 8, 1), (77, 12, 4)])
def test_panel_order_inside_a_phase_matters(n, b, h):
    """Negative control: ascending panel order per phase reproduces the
    panel-major loop; descending order changes the band by O(1), so the
    equivalence tests above can fail."""
    a = random_banded_symmetric(n, b, seed=n + b)
    want = sbr_oracle.chase_all(a.copy(), b, h)
    assert _equal(_phase_major(a.copy(), b, h, descending=False), want)
    assert np.abs(_phase_major(a.copy(), b, h, descending=True) - want).max() > 1e-3


# ------------------------------------------------------------------ #
# the schedule


RULE_SHAPES = [(48, 8, 4), (50, 8, 4), (61, 6, 3), (100, 14, 7), (130, 8, 1), (37, 5, 1),
               (64, 12, 4), (97, 12, 4), (77, 9, 3), (64, 32, 16), (512, 4, 2),
               (384, 32, 24), (97, 7, 3), (61, 12, 5)]


@pytest.mark.parametrize("n,b,h", RULE_SHAPES)
def test_waves_are_two_stage_safe(n, b, h):
    """Ragged n, h = 1 and k = b/h = 3 included."""
    assert schedule_checks(n, b, h)["waves_two_stage_safe"]


@pytest.mark.parametrize("n,b,h", RULE_SHAPES)
def test_waves_partition_the_phases(n, b, h):
    """Expanding every run gives back exactly each phase's steps."""
    arr = chase_step_arrays(n, b, h)
    waves = chase_waves(n, b, h)
    phases = phase_steps(n, b, h)
    assert len(waves) == len(phases)
    for wave, idx in zip(waves, phases):
        got = sorted(
            (run.oqr_r + k * run.stride, run.oqr_r + k * run.stride - run.lag, run.nr,
             run.ncols, run.oqr_r + k * run.stride - run.ov, run.nc)
            for run in wave for k in range(run.count)
        )
        want = sorted(zip(*(arr[f][idx].tolist() for f in ("oqr_r", "oqr_c", "nr", "ncols", "oup_c", "nc"))))
        assert got == want
        assert np.all(np.diff(arr["i"][idx]) > 0)  # ascending panel order
