"""The b ≥ 6 finish chase, run in stacked pipeline phases, is the per-step
chase of ``tests/band_tridiag_oracle.py`` byte for byte."""

import numpy as np
import pytest

from repro.linalg.band_tridiag import _householder_chase, _spans, extract_band
from repro.linalg.sbr import chase_waves
from repro.util.matrices import random_banded_symmetric

from tests.band_tridiag_oracle import householder_chase


def assert_matches_oracle(data, b):
    keep = data.copy()
    got = _householder_chase(data, b)
    assert np.array_equal(data, keep)
    want = householder_chase(data, b)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def steps_per_phase(n, b):
    """Steps with a reflector (two rows or more) in each phase."""
    return {sum(run.count for run in wave if run.nr > 1) for wave in chase_waves(n, b, 1)}


@pytest.mark.parametrize("b", [6, 8, 12, 24])
@pytest.mark.parametrize("n", [31, 64, 384])
def test_random_bands(n, b):
    assert_matches_oracle(extract_band(random_banded_symmetric(n, b, seed=n + b), b), b)


@pytest.mark.parametrize("n,b", [(50, 8), (61, 6), (101, 12), (389, 24)])
def test_ragged_n(n, b):
    assert n % b
    assert_matches_oracle(extract_band(random_banded_symmetric(n, b, seed=3 * n + b), b), b)


@pytest.mark.parametrize("n,b", [(7, 6), (12, 6), (13, 6), (16, 8), (17, 8), (25, 12), (48, 24), (96, 48)])
def test_one_step_per_phase(n, b):
    """n ≤ 2b: every phase holds one step (the shapes a served small solve
    hits, such as (16, 8) and (96, 48)), so every run is a single frame."""
    assert steps_per_phase(n, b) <= {0, 1}
    assert_matches_oracle(extract_band(random_banded_symmetric(n, b, seed=n * b), b), b)


def test_stacked_phases_are_exercised():
    assert max(steps_per_phase(384, 24)) > 1 and max(steps_per_phase(384, 6)) > 1


@pytest.mark.parametrize("b", [6, 12])
def test_zero_tails_split_a_run(b):
    """Decoupled blocks, zero stretches and an identity: steps whose column
    tail is zero need no reflector, which cuts runs into spans."""
    n = 8 * b + 3
    a = random_banded_symmetric(n, b, seed=b)
    for lo in range(0, n, 2 * b + 1):  # decouple the band into blocks
        a[lo + b :, lo : lo + b] = a[lo : lo + b, lo + b :] = 0.0
    assert_matches_oracle(extract_band(a, b), b)
    a[b : 3 * b] = a[:, b : 3 * b] = 0.0
    assert_matches_oracle(extract_band(a, b), b)
    assert_matches_oracle(extract_band(np.eye(n), b), b)


def test_spans():
    assert _spans([]) == []
    assert _spans([0, 1, 2]) == [(0, 3)]
    assert _spans([0, 1, 3, 4, 7]) == [(0, 2), (3, 5), (7, 8)]
