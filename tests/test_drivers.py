"""Tests for the complete eigensolvers (Algorithm IV.3 and the baselines)."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.eig import (
    SOLVERS,
    eigensolve_2p5d,
    eigensolve_ca_sbr,
    eigensolve_elpa_like,
    eigensolve_scalapack_like,
    solve_by_name,
)
from repro.eig.driver import default_initial_bandwidth, finish_sequential
from repro.dist.banded import DistBandMatrix
from repro.util.validation import reference_spectrum_error, scaled_to_safe_range
from repro.util.matrices import (
    random_banded_symmetric,
    random_spectrum_symmetric,
    random_symmetric,
)

from tests.helpers import eig_err, wilkinson


class Test2p5dSolver:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_spectrum_across_p(self, p):
        a = random_symmetric(48, seed=p)
        res = eigensolve_2p5d(BSPMachine(p), a)
        assert reference_spectrum_error(a, res.eigenvalues) < 1e-8

    @pytest.mark.parametrize("delta", [0.5, 0.58, 2.0 / 3.0])
    def test_spectrum_across_delta(self, delta):
        a = random_symmetric(64, seed=1)
        res = eigensolve_2p5d(BSPMachine(16), a, delta=delta)
        assert reference_spectrum_error(a, res.eigenvalues) < 1e-8

    def test_prescribed_spectrum(self):
        d = np.linspace(-5, 5, 32)
        a = random_spectrum_symmetric(d, seed=2)
        res = eigensolve_2p5d(BSPMachine(4), a)
        assert np.abs(res.eigenvalues - d).max() < 1e-8

    def test_wilkinson_clusters(self):
        w = wilkinson(33)
        res = eigensolve_2p5d(BSPMachine(4), w, b0=8)
        assert eig_err(w, res.eigenvalues) < 1e-8

    def test_result_metadata(self):
        res = eigensolve_2p5d(BSPMachine(16), random_symmetric(48, 3), delta=2.0 / 3.0)
        assert res.replication >= 1
        assert 0.5 <= res.delta <= 0.76
        assert res.initial_bandwidth >= 2
        assert res.cost.p == 16
        assert len(res.stages) >= 2
        assert "full_to_band" in res.stages[0][0]
        assert "finish" in res.stages[-1][0]
        assert "total" in res.stage_summary()

    def test_stage_costs_sum_to_total(self):
        res = eigensolve_2p5d(BSPMachine(8), random_symmetric(48, 4))
        stage_flops = sum(rep.total_flops for _, rep in res.stages)
        assert stage_flops == pytest.approx(res.cost.total_flops, rel=1e-9)

    def test_explicit_b0(self):
        res = eigensolve_2p5d(BSPMachine(4), random_symmetric(48, 5), b0=12)
        assert res.initial_bandwidth == 12
        assert eig_err(random_symmetric(48, 5), res.eigenvalues) < 1e-8

    def test_rejects_n_smaller_than_p(self):
        with pytest.raises(ValueError, match="n >= p"):
            eigensolve_2p5d(BSPMachine(64), random_symmetric(8, 0))

    def test_rejects_bad_b0(self):
        with pytest.raises(ValueError):
            eigensolve_2p5d(BSPMachine(4), random_symmetric(16, 0), b0=16)

    def test_default_initial_bandwidth(self):
        b = default_initial_bandwidth(1024, 64, 0.5)
        assert b & (b - 1) == 0  # power of two
        assert 2 <= b <= 512


class TestBaselines:
    def test_scalapack_like(self):
        a = random_symmetric(40, seed=6)
        m = BSPMachine(16)
        ev = eigensolve_scalapack_like(m, a)
        assert eig_err(a, ev) < 1e-9
        assert m.cost().S >= 40  # per-column synchronization

    def test_elpa_like(self):
        a = random_symmetric(48, seed=7)
        m = BSPMachine(16)
        ev = eigensolve_elpa_like(m, a)
        assert eig_err(a, ev) < 1e-8

    def test_elpa_explicit_bandwidth(self):
        a = random_symmetric(48, seed=8)
        ev = eigensolve_elpa_like(BSPMachine(4), a, b=6)
        assert eig_err(a, ev) < 1e-8

    def test_elpa_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            eigensolve_elpa_like(BSPMachine(4), random_symmetric(16, 0), b=16)

    def test_ca_sbr_solver(self):
        a = random_symmetric(48, seed=9)
        m = BSPMachine(16)
        ev = eigensolve_ca_sbr(m, a)
        assert eig_err(a, ev) < 1e-8

    def test_all_solvers_agree(self):
        a = random_symmetric(32, seed=10)
        evs = [
            eigensolve_2p5d(BSPMachine(4), a).eigenvalues,
            eigensolve_scalapack_like(BSPMachine(4), a),
            eigensolve_elpa_like(BSPMachine(4), a),
            eigensolve_ca_sbr(BSPMachine(4), a),
        ]
        for ev in evs[1:]:
            assert np.abs(ev - evs[0]).max() < 1e-8


class TestSolverBoundary:
    """What the service's dispatch (``solve_by_name``) hands a solver is
    validated before any charge."""

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_tiny_norm_asymmetric_input_is_a_typed_error(self, name):
        # entries ~1e-12: far below any absolute gate, yet not symmetric
        a = 1e-12 * np.triu(random_symmetric(16, seed=4))
        m = BSPMachine(4)
        with pytest.raises(ValueError, match="A is not symmetric"):
            solve_by_name(name, m, a)
        assert m.cost() == BSPMachine(4).cost()

    def test_in_range_input_is_passed_through_untouched(self):
        """Scaling is only for out-of-range inputs: anything else reaches the
        solver as the very same array, so every pinned document stays put."""
        seen = []

        @scaled_to_safe_range
        def spy(machine, a):
            seen.append(a)
            return np.ones(a.shape[0])

        for scale in (1e-145, 1.0, 1e145):
            a = scale * random_symmetric(16, seed=3)
            assert (spy(None, a) == 1.0).all()
            assert seen[-1] is a
        a = 1e-150 * random_symmetric(16, seed=3)
        exp = int(np.frexp(np.abs(a).max())[1])
        assert (spy(None, a) == np.ldexp(1.0, exp)).all()  # eigenvalues scaled back
        assert (seen[-1] == np.ldexp(a, -exp)).all()  # by an exact power of two
        assert 0.5 <= np.abs(seen[-1]).max() < 1.0

    def test_scaling_leaves_costs_alone(self):
        a = random_symmetric(16, seed=3)
        costs = [solve_by_name("eig2p5d", BSPMachine(4), s * a).cost for s in (1.0, 1e-200, 1e200)]
        assert costs[0] == costs[1] == costs[2]

    def test_tiny_norm_symmetric_input_is_solved(self):
        a = 1e-12 * random_symmetric(16, seed=4)
        res = solve_by_name("eig2p5d", BSPMachine(4), a)
        assert eig_err(a, res.eigenvalues) < 1e-8 * 1e-12


    @pytest.mark.parametrize(
        "scale", [1e-300, 1e-200, 1e-160, 1e-150, 1e-20, 1.0, 1e150, 1e160, 1e200, 1e300]
    )
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_accuracy_scales_with_the_matrix(self, name, scale):
        """Backward-error gate at every magnitude: the Gershgorin pad (and
        with it the bisection's stopping width) used to be absolute below
        norm 1, returning a spectrum off by 2e6·n·ε·‖A‖₂ at scale 1e-20.
        Outside LAPACK's safe range the solvers squared entries into under-
        or overflow — τ = 0 reflectors, e² = 0 in the Sturm recurrence — and
        returned all-zero spectra at 1e-170, or a non-finite-tridiagonal
        error at 1e160; every public eigensolver now scales such inputs
        first, so the dispatcher and the table entries both get it."""
        a = scale * random_symmetric(16, seed=3)
        ref = np.linalg.eigvalsh(a)
        bound = 4.0 * 16 * np.finfo(np.float64).eps * np.abs(ref).max()
        for res in (solve_by_name(name, BSPMachine(4), a, 0.5), SOLVERS[name](BSPMachine(4), a, 0.5)):
            assert np.abs(np.sort(res.eigenvalues) - ref).max() <= bound

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize(
        "solve",
        [eigensolve_2p5d, eigensolve_ca_sbr, eigensolve_elpa_like, eigensolve_scalapack_like],
    )
    def test_public_solvers_scale_extreme_inputs(self, solve, scale):
        a = scale * random_symmetric(16, seed=3)
        out = solve(BSPMachine(4), a)
        evals = getattr(out, "eigenvalues", out)
        ref = np.linalg.eigvalsh(a)
        bound = 4.0 * 16 * np.finfo(np.float64).eps * np.abs(ref).max()
        assert np.abs(np.sort(evals) - ref).max() <= bound


class TestFinishSequential:
    def test_charges_only_root(self):
        m = BSPMachine(4)
        a = random_banded_symmetric(24, 3, seed=11)
        band = DistBandMatrix(m, a, 3, m.world)
        ev = finish_sequential(m, band)
        assert eig_err(a, ev) < 1e-9
        assert m.counters.flops[0] > 0
        assert m.counters.flops[1] == 0.0

    def test_tridiagonal_band_skips_reduction(self):
        m = BSPMachine(2)
        a = random_banded_symmetric(16, 1, seed=12)
        band = DistBandMatrix(m, a, 1, m.world)
        ev = finish_sequential(m, band)
        assert eig_err(a, ev) < 1e-10
