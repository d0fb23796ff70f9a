"""Tests for the dynamic BSP discipline verifier (``VerifiedMachine``).

Unit tests seed each invariant violation by hand and assert it raises
:class:`BSPDisciplineError`; the integration sweep runs the full 2.5D
eigensolver under verification for n ∈ {64, 128}, p ∈ {4, 16} and both
replication regimes and asserts nothing fires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BSPMachine, eigensolve_2p5d
from repro.bsp.group import RankGroup
from repro.bsp.pattern import explicit, pairs
from repro.bsp.kernels import sharded_axpy, sharded_dot, sharded_matvec, sharded_rank2_update
from repro.eig.scalapack_like import eigensolve_scalapack_like
from repro.lint import BSPDisciplineError, VerifiedMachine
from repro.model.bounds import memory_bound_words
from repro.util import random_symmetric
from repro.util.validation import reference_spectrum_error


class TestMemoryBound:
    def test_formula(self):
        # slack·(n²/p^{2(1−δ)} + n + p) at δ=1/2 → n²/p leading term
        assert memory_bound_words(64, 16, 0.5, slack=1.0) == pytest.approx(
            64 * 64 / 16 + 64 + 16
        )

    def test_delta_sharpens_to_full_replication(self):
        loose = memory_bound_words(256, 64, 2.0 / 3.0)
        tight = memory_bound_words(256, 64, 0.5)
        assert loose > tight  # more replication ⇒ larger per-rank footprint

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            memory_bound_words(64, 16, 0.25)
        with pytest.raises(ValueError):
            memory_bound_words(64, 16, 0.5, slack=0.0)


class TestInvariantViolations:
    def test_conservation_mismatch_raises_at_superstep(self):
        m = VerifiedMachine(4)
        m.charge_comm(0, 10.0, None, None, pattern=explicit((1, 0), [], []))  # receive side never booked
        with pytest.raises(BSPDisciplineError, match="conservation"):
            m.superstep()

    def test_balanced_exchange_passes(self):
        m = VerifiedMachine(4)
        m.charge_comm(0, 10.0, 1, 10.0, pattern=pairs(1))
        m.superstep()
        assert m.checks_run == 1

    def test_cost_snapshot_also_verifies(self):
        m = VerifiedMachine(2)
        m.charge_comm(None, None, 1, 5.0, pattern=explicit((0, 1), [], []))
        with pytest.raises(BSPDisciplineError, match="conservation"):
            m.cost()

    def test_memory_overshoot_raises(self):
        m = VerifiedMachine(4, memory_bound_words=100.0)
        m.note_memory(2, 101.0)
        with pytest.raises(BSPDisciplineError, match="memory-bound"):
            m.superstep()

    def test_memory_within_budget_passes(self):
        m = VerifiedMachine(4, memory_bound_words=100.0)
        m.note_memory(m.world, 100.0)
        m.superstep()
        assert m.checks_run == 1

    def test_monotone_violation_raises(self):
        m = VerifiedMachine(2)
        m.charge_flops(m.world, 50.0)
        m.superstep()
        m.counters.flops[0] = 1.0  # someone "un-charged" work
        with pytest.raises(BSPDisciplineError, match="monotonicity"):
            m.superstep()


class TestShardedKernels:
    """The group-sharded kernels that closed the scalapack_like cost leak."""

    def test_matvec_values_and_charges(self):
        m = BSPMachine(4)
        group = RankGroup((0, 1))
        a = np.arange(12.0).reshape(3, 4)
        v = np.ones(4)
        y = sharded_matvec(m, group, a, v, scale=2.0)
        np.testing.assert_allclose(y, 2.0 * (a @ v))
        assert m.counters.flops[0] == pytest.approx(2 * 3 * 4 / 2)
        assert m.counters.mem_traffic[0] == pytest.approx(3 * 4 / 2)
        assert m.counters.flops[2] == 0.0  # outside the group

    def test_dot_axpy_rank2_consistency(self):
        m = BSPMachine(2)
        group = RankGroup((0, 1))
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        v = rng.standard_normal(5)
        w = rng.standard_normal(5)
        assert sharded_dot(m, group, v, w) == pytest.approx(float(np.dot(v, w)))
        y = w.copy()
        sharded_axpy(m, group, -0.5, v, y)
        np.testing.assert_allclose(y, w - 0.5 * v)
        expect = a - np.outer(v, y) - np.outer(y, v)
        sharded_rank2_update(m, group, a, v, y)
        np.testing.assert_allclose(a, expect)
        assert (m.counters.flops > 0).all()

    def test_shape_mismatch_rejected(self):
        m = BSPMachine(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            sharded_dot(m, m.world, np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="shape mismatch"):
            sharded_rank2_update(m, m.world, np.ones((3, 3)), np.ones(3), np.ones(2))


class TestPipelineUnderVerification:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("p,delta", [(4, 0.5), (4, 2 / 3), (16, 0.5), (16, 2 / 3)])
    def test_eigensolver_clean_under_verifier(self, n, p, delta):
        machine = VerifiedMachine.for_problem(p, n, delta)
        a = random_symmetric(n, seed=3)
        res = eigensolve_2p5d(machine, a, delta=delta)
        assert machine.checks_run > 0
        assert reference_spectrum_error(a, res.eigenvalues) < 1e-8
        # the sweep exercises both replication regimes: c = 4 at (p=16,
        # δ=2/3), c = 1 everywhere else the grid admits
        assert res.replication == (4 if (p == 16 and delta > 0.6) else 1)

    def test_scalapack_baseline_clean_under_verifier(self):
        machine = VerifiedMachine.for_problem(4, 64, 0.5, slack=16.0)
        a = random_symmetric(64, seed=1)
        evals = eigensolve_scalapack_like(machine, a)
        assert machine.checks_run > 0
        assert reference_spectrum_error(a, evals) < 1e-8

    def test_verified_costs_match_plain_machine(self):
        """Verification must observe, never perturb, the accounting."""
        a = random_symmetric(64, seed=9)
        plain, verified = BSPMachine(16), VerifiedMachine.for_problem(16, 64, 2 / 3)
        res_p = eigensolve_2p5d(plain, a, delta=2 / 3)
        res_v = eigensolve_2p5d(verified, a, delta=2 / 3)
        cp, cv = plain.cost(), verified.cost()
        assert (cp.F, cp.W, cp.Q, cp.S) == (cv.F, cv.W, cv.Q, cv.S)
        np.testing.assert_allclose(res_p.eigenvalues, res_v.eigenvalues)


@pytest.mark.xfail(raises=BSPDisciplineError, strict=True,
                   reason="known defect (ROADMAP 3(d)): factor_2p5d gives a squarefree p "
                          "a 1x1xp grid, so A is replicated whole on every rank")
def test_verified_run_on_a_squarefree_p(capsys):
    """``repro run --verify --n 64 --p 3`` peaks at 4n² = 16 384 words per
    rank against the Theorem IV.4 budget M = 16 289.2.  Fixing the grid
    makes this pass, and the strict xfail then fails until this mark goes."""
    from repro.cli import main

    assert main(["run", "--verify", "--n", "64", "--p", "3"]) == 0
