"""Tests for the fault-injection / fault-tolerance subsystem (repro.faults).

Covers the seeded plan (determinism, caps, site filters), the injection
sites on :class:`~repro.faults.FaultyMachine`, ABFT checksum detection,
the post-stage invariant guards, the checkpoint/restart retry loop,
degenerate configurations (p=1, ragged n, finish-stage faults), and the
span-exactness property on faulty runs: per-span sums — including recovery
re-execution — reproduce the global report bit-for-bit, on the live store
and on the scalar oracle.
"""

import numpy as np
import pytest

from repro.bsp import BSPMachine, collectives
from repro.bsp.group import RankGroup
from repro.bsp.machine import NO_FAULTS
from repro.eig.driver import eigensolve_2p5d
from repro.faults import (
    SCENARIOS,
    CorruptData,
    FaultDetected,
    FaultPlan,
    FaultSpec,
    FaultyMachine,
    RankFailure,
    UnrecoverableFault,
    parse_faults,
)
from repro.faults.abft import abft_check
from repro.faults.machine import BACKOFF_SUPERSTEPS
from repro.faults.recovery import (
    STAGE_RETRIES,
    guard_band,
    guard_tridiagonal,
    run_stage,
)
from repro.util.matrices import random_banded_symmetric, random_symmetric
from repro.util.validation import frobenius_norm
from tests.helpers import span_rows
from tests.scalar_oracle import ENGINES, machine_on

#: a scenario that exercises corruption + retry without killing ranks
KC = FaultSpec(name="kc", kernel_corrupt_prob=0.3, max_corruptions=2,
               max_rank_failures=0)


class TestFaultSpec:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="rank_failure_prob"):
            FaultSpec(rank_failure_prob=1.5)
        with pytest.raises(ValueError, match="nan_fraction"):
            FaultSpec(nan_fraction=-0.1)

    def test_scenarios_are_well_formed(self):
        assert set(SCENARIOS) >= {"clean", "rank-failure", "message-drop",
                                  "message-corrupt", "kernel-corrupt", "chaos"}
        for name, spec in SCENARIOS.items():
            assert spec.name == name

    def test_parse_faults(self):
        assert parse_faults("chaos:5") == (SCENARIOS["chaos"], 5)
        assert parse_faults("clean") == (SCENARIOS["clean"], 0)
        # a bare integer selects the chaos scenario
        assert parse_faults("7") == (SCENARIOS["chaos"], 7)
        with pytest.raises(ValueError, match="unknown fault scenario"):
            parse_faults("nonsense")


class TestFaultPlan:
    def test_draws_advance_on_every_consultation(self):
        plan = FaultPlan(FaultSpec(message_drop_prob=0.5), seed=0)
        for _ in range(10):
            plan.draw_message_drop("site", "span")
        assert plan.draws == 10

    def test_zero_probability_never_draws(self):
        plan = FaultPlan(SCENARIOS["clean"], seed=0)
        a = np.ones((4, 4))
        assert not plan.corrupt(a, "s", "sp", plan.spec.kernel_corrupt_prob)
        assert plan.draws == 0 and plan.events == []

    def test_same_seed_same_stream(self):
        specs = FaultSpec(kernel_corrupt_prob=0.6, max_corruptions=None)
        outs = []
        for _ in range(2):
            plan = FaultPlan(specs, seed=42)
            a = np.arange(16.0).reshape(4, 4)
            for i in range(8):
                plan.corrupt(a, f"site{i}", "span", specs.kernel_corrupt_prob)
            outs.append((plan.draws, tuple(plan.events), a.copy()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
        assert np.array_equal(outs[0][2], outs[1][2], equal_nan=True)

    def test_max_corruptions_cap(self):
        plan = FaultPlan(FaultSpec(kernel_corrupt_prob=1.0, max_corruptions=2),
                         seed=0)
        a = np.ones(100)
        fired = sum(plan.corrupt(a, "s", "sp", 1.0) for _ in range(10))
        assert fired == 2

    def test_site_filter(self):
        plan = FaultPlan(
            FaultSpec(kernel_corrupt_prob=1.0, site_filter=("finish",),
                      max_corruptions=None),
            seed=0,
        )
        a = np.ones(10)
        assert not plan.corrupt(a, "summa", "sp", 1.0)
        assert plan.corrupt(a, "finish:tridiag", "sp", 1.0)

    def test_corruption_changes_zero_entries(self):
        """The additive bump must perturb an exactly-zero entry too."""
        plan = FaultPlan(FaultSpec(kernel_corrupt_prob=1.0, nan_fraction=0.0,
                                   max_corruptions=None), seed=1)
        a = np.zeros(8)
        assert plan.corrupt(a, "s", "sp", 1.0)
        assert np.count_nonzero(a) == 1

    def test_summary_mentions_events(self):
        plan = FaultPlan(FaultSpec(kernel_corrupt_prob=1.0), seed=3)
        plan.corrupt(np.ones(4), "s", "sp", 1.0)
        assert "corruption=1" in plan.summary()


class TestInjectionSites:
    def test_plain_machine_has_noop_faults(self):
        machine = BSPMachine(4)
        assert machine.faults is NO_FAULTS
        assert not machine.faults.enabled
        g = machine.world
        assert machine.faults.live_group(g) is g

    def test_rank_failure_at_barrier_is_typed(self):
        machine = FaultyMachine(
            4, plan=FaultPlan(FaultSpec(rank_failure_prob=1.0), 0), spans=True)
        with pytest.raises(RankFailure) as exc_info:
            with machine.span("doomed"):
                machine.superstep(machine.world)
        err = exc_info.value
        assert err.rank in machine.world.ranks
        assert err.span == "doomed"
        assert err.rank in machine.faults.failed_ranks
        assert machine.spans.depth == 0  # the span context unwound

    def test_quiesce_suspends_injection(self):
        machine = FaultyMachine(
            4, plan=FaultPlan(FaultSpec(rank_failure_prob=1.0), 0))
        with machine.faults.quiesce():
            machine.superstep(machine.world)  # would raise otherwise
        assert machine.plan.draws == 0

    def test_dropped_collective_is_recharged(self):
        drop = FaultSpec(message_drop_prob=1.0, max_rank_failures=0)
        faulty = FaultyMachine(4, plan=FaultPlan(drop, 0))
        clean = BSPMachine(4)
        for m in (faulty, clean):
            collectives.allreduce(m, m.world, 64.0)
        # the retransmission doubles the collective's words and barriers
        assert faulty.cost().W == 2 * clean.cost().W
        assert faulty.cost().S == 2 * clean.cost().S
        assert faulty.plan.events[0].kind == "message_drop"

    def test_live_group_shrinks_after_failure(self):
        machine = FaultyMachine(
            4, plan=FaultPlan(FaultSpec(rank_failure_prob=1.0), 0))
        with pytest.raises(RankFailure):
            machine.superstep(machine.world)
        survivors = machine.faults.live_group(machine.world)
        assert survivors is not None and survivors.size == 3

    def test_generator_group_supersteps(self):
        """FaultyMachine must materialize iterator groups before drawing."""
        machine = FaultyMachine(4, plan=FaultPlan(SCENARIOS["clean"], 0))
        machine.superstep(iter([0, 1]))
        assert machine.cost().S == 1


class TestABFT:
    def _mats(self, rng):
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((8, 10))
        return a, b, a @ b

    def test_clean_product_passes(self, rng, machine4):
        a, b, c = self._mats(rng)
        abft_check(machine4, machine4.world, a, b, c, site="test")
        assert machine4.cost().F > 0  # detection cost is charged

    def test_single_flip_detected(self, rng, machine4):
        a, b, c = self._mats(rng)
        c[3, 4] += 1.0
        with pytest.raises(CorruptData, match="ABFT checksum mismatch"):
            abft_check(machine4, machine4.world, a, b, c, site="test")

    def test_nan_detected_with_span(self, rng):
        machine = BSPMachine(4, spans=True)
        a, b, c = self._mats(rng)
        c[0, 0] = np.nan
        with machine.span("product"):
            with pytest.raises(CorruptData) as exc_info:
                abft_check(machine, machine.world, a, b, c, site="test")
        assert exc_info.value.span == "product/abft"


class TestGuards:
    def test_guard_band_passes_clean(self, machine4):
        band = random_banded_symmetric(16, 3, seed=0)
        guard_band(machine4, band, 3, frobenius_norm(band), "stage",
                   machine4.world)

    @pytest.mark.parametrize("poison", ["nan", "asym", "outside", "bump"])
    def test_guard_band_catches(self, machine4, poison):
        band = random_banded_symmetric(16, 3, seed=0)
        norm0 = frobenius_norm(band)
        if poison == "nan":
            band[2, 2] = np.nan
        elif poison == "asym":
            band[1, 2] += 1.0  # breaks symmetry
        elif poison == "outside":
            band[0, 10] = band[10, 0] = 5.0  # outside the band
        else:
            band[2, 2] += 2.0**20  # symmetric, in-band, but norm drifts
        with pytest.raises(CorruptData):
            guard_band(machine4, band, 3, norm0, "stage", machine4.world)

    def test_guard_tridiagonal_catches_offdiag_flip(self, machine4):
        d = np.arange(1.0, 9.0)
        e = 0.5 * np.ones(7)
        norm0 = float(np.sqrt(np.sum(d * d) + 2.0 * np.sum(e * e)))
        guard_tridiagonal(machine4, d, e, norm0, root=0)
        e[3] += 1.0  # trace-preserving corruption: only the norm sees it
        with pytest.raises(CorruptData, match="norm drifted"):
            guard_tridiagonal(machine4, d, e, norm0, root=0)


class TestRunStage:
    def _machine(self, **spec_kw):
        spec = FaultSpec(**spec_kw) if spec_kw else SCENARIOS["clean"]
        return FaultyMachine(4, plan=FaultPlan(spec, 0), spans=True)

    def test_retry_restores_checkpoint(self):
        machine = self._machine()
        data = np.arange(8.0)
        attempts = []

        def attempt():
            attempts.append(data.copy())
            if len(attempts) == 1:
                data[:] = np.nan  # corrupt, then "detect"
                raise CorruptData("injected", span="t")
            return float(data.sum())

        out = run_stage(machine, "stage", attempt, arrays={"x": data}, group=machine.world)
        assert out == 28.0
        assert len(attempts) == 2
        assert np.array_equal(attempts[1], np.arange(8.0))  # restored
        # the retry's charges live in dedicated spans
        paths = list(span_rows(machine.cost().by_span()))
        assert "checkpoint" in paths and "recovery" in paths
        assert "recovery/restore" in paths

    def test_plain_machine_runs_the_stage_bare(self):
        # no live fault layer: no checkpoint, no guard, no charge
        machine = BSPMachine(4, spans=True)
        data = np.arange(8.0)

        def guard(out):
            raise AssertionError("guards only run under a live fault layer")

        out = run_stage(machine, "stage", lambda: float(data.sum()),
                        arrays={"x": data}, group=machine.world, guard=guard)
        assert out == 28.0
        assert machine.cost() == BSPMachine(4).cost()
        assert machine.spans.events == []

    def test_retries_exhausted_is_unrecoverable(self):
        machine = self._machine()

        def always_bad():
            raise CorruptData("persistent", span="stage-span")

        with pytest.raises(UnrecoverableFault, match="retries"):
            run_stage(machine, "bad", always_bad)
        # every allowed attempt was a recovery
        assert len(machine.faults.recoveries) == \
            STAGE_RETRIES + 1

    def test_rank_loss_without_reconfigure_is_unrecoverable(self):
        machine = self._machine(rank_failure_prob=1.0)

        def barrier():
            machine.superstep(machine.world)

        with pytest.raises(UnrecoverableFault, match="cannot reconfigure"):
            run_stage(machine, "rigid", barrier)

    def test_rank_loss_invokes_reconfigure(self):
        machine = self._machine(rank_failure_prob=1.0, max_rank_failures=1)
        seen = []

        def flaky():
            machine.superstep(machine.world)
            return "ok"

        out = run_stage(machine, "elastic", flaky,
                        on_rank_loss=lambda g: seen.append(g))
        assert out == "ok"
        assert len(seen) == 1 and seen[0].size == 3


class TestDegenerateConfigs:
    def test_p1_rank_failure_is_clean_typed_error(self):
        a = random_symmetric(16, seed=3)
        machine = FaultyMachine(
            1, plan=FaultPlan(FaultSpec(rank_failure_prob=1.0), 0), spans=True)
        with pytest.raises(UnrecoverableFault, match="no surviving ranks"):
            eigensolve_2p5d(machine, a, delta=0.5)

    def test_ragged_n_recovers(self):
        """n=90 is not divisible by the panel width or by p."""
        a = random_symmetric(90, seed=3)
        machine = FaultyMachine(4, plan=FaultPlan(KC, 5), spans=True)
        res = eigensolve_2p5d(machine, a, delta=2.0 / 3.0)
        assert len(machine.plan.events) > 0  # faults actually fired
        ref = np.linalg.eigvalsh(a)
        assert float(np.abs(res.eigenvalues - ref).max()) < 1e-8

    def test_fault_inside_sequential_finish(self):
        a = random_symmetric(32, seed=3)
        hammer = FaultSpec(name="finish-kc", kernel_corrupt_prob=1.0,
                           site_filter=("finish",), max_corruptions=None,
                           max_rank_failures=0)
        machine = FaultyMachine(4, plan=FaultPlan(hammer, 0), spans=True)
        with pytest.raises(UnrecoverableFault) as exc_info:
            eigensolve_2p5d(machine, a, delta=0.5)
        assert "finish" in exc_info.value.span

    def test_finish_fault_capped_recovers(self):
        a = random_symmetric(32, seed=3)
        once = FaultSpec(name="finish-kc1", kernel_corrupt_prob=1.0,
                         site_filter=("finish",), max_corruptions=1,
                         max_rank_failures=0)
        machine = FaultyMachine(4, plan=FaultPlan(once, 0), spans=True)
        res = eigensolve_2p5d(machine, a, delta=0.5)
        assert len(machine.faults.recoveries) == 1
        ref = np.linalg.eigvalsh(a)
        assert float(np.abs(res.eigenvalues - ref).max()) < 1e-8


class TestFaultySpanExactness:
    """Satellite (f): per-span sums on a *faulty* run — including recovery
    re-execution — reproduce the global report bit-for-bit, on both engines,
    with identical rows across engines."""

    def _run(self, engine):
        a = random_symmetric(32, seed=3)
        machine = machine_on(engine, 4, FaultyMachine, plan=FaultPlan(KC, 5),
                             spans=True)
        eigensolve_2p5d(machine, a, delta=2.0 / 3.0)
        assert len(machine.faults.recoveries) > 0  # retries happened
        return machine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulty_breakdown_is_bit_exact(self, engine):
        machine = self._run(engine)
        report = machine.cost()
        bd = report.by_span()
        assert bd.open_paths == ()
        assert bd.verify_exact() == []
        assert machine.spans.verify_attribution() == []
        first, *rest = span_rows(bd)
        total = bd.per_rank[first]["flops"].copy()
        for path in rest:
            total = total + bd.per_rank[path]["flops"]
        assert float(np.sum(total)) == report.total_flops
        # resilience overhead is visible as dedicated spans
        assert any("recovery" in p for p in span_rows(bd))
        assert any(p.endswith("/abft") for p in span_rows(bd))

    def test_engines_agree_on_faulty_run(self):
        machines = {engine: self._run(engine) for engine in ENGINES}
        a, s = (machines[e] for e in ENGINES)
        assert tuple(a.plan.events) == tuple(s.plan.events)
        assert a.plan.draws == s.plan.draws
        bda, bds = a.cost().by_span(), s.cost().by_span()
        assert list(span_rows(bda)) == list(span_rows(bds))
        for ra, rs in zip(bda.rows, bds.rows):
            assert ra == rs


def _solve_machine(monkeypatch, argv):
    """The machine ``repro solve`` builds for ``argv``."""
    import repro
    from repro.cli import main

    seen = []
    solve = repro.eigensolve_2p5d

    def spy(machine, a, **kwargs):
        seen.append(machine)
        return solve(machine, a, **kwargs)

    monkeypatch.setattr(repro, "eigensolve_2p5d", spy)
    assert main(["solve", "--n", "16", "--p", "4", *argv]) == 0
    (machine,) = seen
    return machine


class TestEnvOptIn:
    """Faults are opted into by constructing a FaultyMachine (``repro
    solve --faults``), never through the environment."""

    def test_unset_returns_plain_machine(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "message-drop:9")  # read by nothing
        assert type(_solve_machine(monkeypatch, [])) is BSPMachine

    def test_env_scenario_and_seed(self, monkeypatch, capsys):
        machine = _solve_machine(monkeypatch, ["--faults", "message-drop:9"])
        assert isinstance(machine, FaultyMachine)
        assert machine.plan.spec.name == "message-drop"
        assert machine.plan.seed == 9
        assert parse_faults("9") == (SCENARIOS["chaos"], 9)

    def test_policy_defaults(self):
        assert STAGE_RETRIES == 2 and BACKOFF_SUPERSTEPS == 1
