"""Tests for the service resilience layer (``repro.serve.resilience``).

The event loop is exercised with synthetic rung/outcome callbacks — no
eigensolves — so every mechanism (deadlines, retries, quarantine) is
tested in isolation and in milliseconds, at the loop's fixed constants.
The integration with real solves is covered by ``tests/test_serve.py``
and ``tests/test_journal.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serve.cache import TuningCache
from repro.serve.journal import JournalMismatch
from repro.serve.pool import MachinePool
from repro.serve.resilience import (
    BREAKER_COOLDOWN,
    BREAKER_THRESHOLD,
    RETRY_BUDGET,
    SERVICE_SCENARIOS,
    SLO_CLASSES,
    AttemptOutcome,
    Rung,
    ServiceScenario,
    SimJob,
    _hash01,
    deadline_for,
    retry_delay,
    run_resilient,
    slo_summary,
)
from repro.serve.service import EigenService
from repro.serve.workload import JobSpec, Workload

from tests.helpers import happy_path_schedule

RUNG = Rung(1, 0.5, "primary")


def ok_outcome(service=10.0):
    def outcome_for(job_id, rung, attempt, machine_id):
        return AttemptOutcome(ok=True, service_time=service, sim_cost={"flops": 1.0})
    return outcome_for


def rung_ladder(job_id, failures):
    """A standard 1-rank ladder: primary, then escalating retries."""
    kinds = ["primary", "same-plan", "grid-shrink", "replicated"]
    return Rung(1, 0.5, kinds[min(failures, 3)])


def chaos_outcome(scen):
    """Synthetic attempts under a :class:`ServiceScenario`'s seeded hooks."""
    def outcome_for(job_id, rung, attempt, machine_id):
        if scen.is_poison(job_id):
            return AttemptOutcome(ok=False, service_time=3.0)
        if scen.is_flaky_attempt(machine_id, job_id, attempt):
            return AttemptOutcome(ok=False, service_time=5.0)
        factor = scen.straggler_factor if scen.is_straggler(job_id, attempt) else 1.0
        return AttemptOutcome(ok=True, service_time=10.0 * factor)
    return outcome_for


def assert_one_attempt_in_flight(run):
    """Per job, trials run back to back and never overlap in simulated
    time, and the stats count and charge exactly the trials that ran."""
    by_job = {}
    for t in run.trials:
        by_job.setdefault(t.job_id, []).append(t)
    for job_id, trials in by_job.items():
        assert [t.attempt for t in trials] == list(range(len(trials)))
        for prev, nxt in zip(trials, trials[1:]):
            assert prev.finish <= nxt.start, f"job {job_id}: attempts overlap"
    assert run.stats.trials == len(run.trials)
    assert run.stats.trials == sum(v.attempts for v in run.verdicts.values())
    assert run.stats.charged["service_time"] == sum(
        t.outcome.service_time for t in run.trials
    )


# ------------------------------------------------------------------ #
# deterministic draws / policies


class TestPolicies:
    def test_hash01_is_deterministic_and_uniform_range(self):
        draws = [_hash01(i, 7) for i in range(1000)]
        assert draws == [_hash01(i, 7) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6  # roughly uniform

    def test_retry_backoff_grows_exponentially_with_bounded_jitter(self):
        d1, d2, d3 = (retry_delay(5, k) for k in (1, 2, 3))
        assert 2.0e4 <= d1 <= 2.5e4
        assert 4.0e4 <= d2 <= 5.0e4
        assert 8.0e4 <= d3 <= 1.0e5
        assert retry_delay(5, 1) == d1  # seeded, not sampled

    def test_scheduling_policy_validated(self):
        with pytest.raises(ValueError, match="fifo.*edf|edf.*fifo"):
            EigenService(MachinePool(1, 1), TuningCache(), scheduling="sjf")
        with pytest.raises(ValueError, match="fifo.*edf|edf.*fifo"):
            run_resilient(
                [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, ok_outcome(),
                scheduling="sjf",
            )

    def test_policy_fingerprint_distinguishes_configs(self, tmp_path):
        """The journal binds the dispatch order: a fifo journal resumed
        under edf is refused, not blended."""
        path = tmp_path / "j.jsonl"
        workload = Workload([JobSpec(0, 8, 1, 0.0), JobSpec(1, 8, 2, 1.0)], {})
        pool = MachinePool(1, 4)
        EigenService(pool, TuningCache(), journal=path).run_workload(workload)
        with pytest.raises(JournalMismatch):
            EigenService(
                pool, TuningCache(), scheduling="edf", journal=path
            ).run_workload(workload)

    def test_deadlines_come_from_slo_class(self):
        assert deadline_for("interactive", 100.0) == pytest.approx(
            100.0 + SLO_CLASSES["interactive"].deadline
        )
        assert math.isinf(deadline_for("best-effort", 0.0))
        # an unknown class has no deadline: it is refused, not defaulted
        with pytest.raises(KeyError):
            deadline_for("nonsense", 0.0)

    def test_scenario_menu_covers_the_issue_scenarios(self):
        assert {"flaky-machine", "straggler", "poison-job"} <= set(SERVICE_SCENARIOS)
        scen = ServiceScenario(name="x", poison_rate=0.25, seed=3)
        poisoned = [j for j in range(200) if scen.is_poison(j)]
        assert 20 <= len(poisoned) <= 80  # seeded, near the configured rate
        assert poisoned == [j for j in range(200) if scen.is_poison(j)]


# ------------------------------------------------------------------ #
# the event loop: happy path + each mechanism


class TestHappyPath:
    def test_single_job_runs_and_settles_ok(self):
        pool = MachinePool(1, 1)
        run = run_resilient([SimJob(0, 0.0)], pool, rung_ladder, ok_outcome())
        v = run.verdicts[0]
        assert v.disposition == "ok" and v.finish == pytest.approx(10.0)
        assert run.stats.trials == 1 and run.stats.retries == 0
        assert run.schedule.jobs[0].disposition == "ok"

    def test_matches_plain_scheduler_on_clean_workload(self):
        """With no failures/deadlines the resilient loop must place
        jobs exactly like the plain FIFO-backfill / best-fit scheduler kept
        below as ``_oracle_schedule`` (same machine, start, finish)."""
        rng = np.random.default_rng(42)
        pool = MachinePool(2, 8)
        reqs = [
            (
                i,
                float(rng.uniform(0, 500)),
                int(rng.integers(1, 9)),
                float(rng.uniform(5, 80)),
            )
            for i in range(60)
        ]
        sched = happy_path_schedule(reqs, pool)
        placed = _oracle_schedule(reqs, pool)
        assert sorted((j.job_id, j.machine_id, j.start, j.finish) for j in sched.jobs) == placed
        span = max(f for *_, f in placed) - min(r[1] for r in reqs)
        assert sched.makespan == pytest.approx(span)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_resilient(
                [SimJob(0, 0.0), SimJob(0, 1.0)], MachinePool(1, 1),
                rung_ladder, ok_outcome(),
            )

    def test_oversized_rung_stalls_loudly(self):
        def rung_for(job_id, failures):
            return Rung(64, 0.5, "primary")  # nothing in the pool fits
        with pytest.raises(RuntimeError, match="stalled"):
            run_resilient(
                [SimJob(0, 0.0)], MachinePool(1, 8), rung_for, ok_outcome(),
            )


class TestJobValidation:
    """A job the loop cannot serve as asked is refused where it enters:
    a NaN arrival used to spin the loop forever, and a misspelled SLO
    class was served under the batch deadline."""

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_arrival_rejected_at_construction(self, arrival):
        with pytest.raises(ValueError, match="arrival must be finite"):
            JobSpec(0, 8, 1, arrival)

    def test_unknown_slo_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown SLO class 'interactve'"):
            JobSpec(1, 8, 2, 0.0, slo="interactve")

    @pytest.mark.parametrize(
        "job, match",
        [
            ({"arrival": float("nan")}, "arrival must be finite"),
            ({"slo": "interactve"}, "unknown SLO class"),
        ],
        ids=["nan-arrival", "unknown-slo"],
    )
    def test_workload_json_rejects_bad_jobs(self, job, match):
        doc = {"jobs": [{"job_id": 0, "n": 8, "seed": 1, "arrival": 0.0, **job}]}
        with pytest.raises(ValueError, match=match):
            Workload.from_json(doc)

    @pytest.mark.parametrize(
        "job, match",
        [
            (SimJob(0, float("inf")), "arrival must be finite"),
            (SimJob(0, 0.0, slo="interactve"), "unknown SLO class"),
        ],
        ids=["inf-arrival", "unknown-slo"],
    )
    def test_loop_entry_rejects_bad_jobs(self, job, match):
        with pytest.raises(ValueError, match=match):
            run_resilient([job], MachinePool(1, 1), rung_ladder, ok_outcome())


class TestRetries:
    def test_ladder_escalates_and_settles_degraded(self):
        fails_left = {0: 2}

        def outcome_for(job_id, rung, attempt, machine_id):
            if fails_left[job_id] > 0:
                fails_left[job_id] -= 1
                return AttemptOutcome(ok=False, service_time=5.0)
            return AttemptOutcome(ok=True, service_time=10.0)

        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for
        )
        v = run.verdicts[0]
        # two failures → third attempt runs on the grid-shrink rung
        assert v.disposition == "degraded" and v.rung.kind == "grid-shrink"
        assert v.retries == 2 and v.attempts == 3
        assert run.stats.retries == 2
        # backoff delays pushed the finish past 3 service times
        assert v.finish > 3 * 5.0

    def test_budget_exhaustion_is_a_typed_error_not_a_loop(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=False, service_time=5.0)

        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for
        )
        v = run.verdicts[0]
        assert v.disposition == "error"
        assert v.attempts == 1 + RETRY_BUDGET  # primary + full budget, then stop
        assert run.stats.dispositions["error"] == 1

    def test_same_plan_retry_success_stays_ok_not_degraded(self):
        fails_left = {0: 1}

        def outcome_for(job_id, rung, attempt, machine_id):
            if fails_left[job_id] > 0:
                fails_left[job_id] -= 1
                return AttemptOutcome(ok=False, service_time=5.0)
            return AttemptOutcome(ok=True, service_time=10.0)

        run = run_resilient(
            [SimJob(0, 0.0)], MachinePool(1, 1), rung_ladder, outcome_for
        )
        assert run.verdicts[0].disposition == "ok"
        assert run.verdicts[0].rung.kind == "same-plan"


class TestQuarantine:
    def test_flaky_machine_is_quarantined_and_drained(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            return AttemptOutcome(ok=machine_id != 0, service_time=10.0)

        jobs = [SimJob(i, float(i)) for i in range(12)]
        run = run_resilient(
            [*jobs], MachinePool(2, 1), rung_ladder, outcome_for
        )
        assert all(v.disposition in ("ok", "degraded") for v in run.verdicts.values())
        h0 = next(h for h in run.health if h["machine_id"] == 0)
        assert h0["quarantines"] >= 1 and h0["failures"] >= BREAKER_THRESHOLD
        assert run.stats.quarantines >= 1
        # once open, machine 0 stops receiving work: all wins on machine 1
        assert all(v.machine_id == 1 for v in run.verdicts.values())

    def test_half_open_probe_readmits_a_recovered_machine(self):
        # machine 0 fails its first BREAKER_THRESHOLD attempts, then recovers
        attempts_on_0 = [0]

        def outcome_for(job_id, rung, attempt, machine_id):
            if machine_id == 0:
                attempts_on_0[0] += 1
                return AttemptOutcome(
                    ok=attempts_on_0[0] > BREAKER_THRESHOLD, service_time=10.0
                )
            return AttemptOutcome(ok=True, service_time=10.0)

        # a burst that trips the breaker, then one past its cooldown; both
        # keep machine 1 busy, so machine 0 is the only place left to probe
        jobs = [SimJob(i, float(i) * 5.0) for i in range(40)]
        jobs += [SimJob(40 + i, BREAKER_COOLDOWN + float(i) * 5.0) for i in range(40)]
        run = run_resilient(jobs, MachinePool(2, 1), rung_ladder, outcome_for)
        h0 = next(h for h in run.health if h["machine_id"] == 0)
        assert h0["quarantines"] == 1 and h0["probes"] >= 1
        assert h0["state"] == "closed"  # the probe succeeded, breaker closed
        # the breaker opened at the third failure's finish; the probe waited
        # out the whole cooldown
        opened = sorted(t.finish for t in run.trials if t.machine_id == 0)[
            BREAKER_THRESHOLD - 1
        ]
        (probe,) = [t for t in run.trials if t.probe]
        assert probe.start >= opened + BREAKER_COOLDOWN and probe.ok
        # after re-admission machine 0 serves real work again
        wins_on_0 = [v for v in run.verdicts.values() if v.machine_id == 0]
        assert len(wins_on_0) >= 1


class TestStragglers:
    def test_slow_attempt_runs_alone_to_completion(self):
        def outcome_for(job_id, rung, attempt, machine_id):
            slow = job_id == 30 and attempt == 0
            return AttemptOutcome(ok=True, service_time=500.0 if slow else 10.0)

        jobs = [SimJob(i, float(i) * 20.0) for i in range(40)]
        run = run_resilient(jobs, MachinePool(2, 2), rung_ladder, outcome_for)
        v = run.verdicts[30]
        assert v.disposition == "ok" and v.attempts == 1 and v.retries == 0
        # nothing shadows the 50x attempt: the job waits it out, charged once
        assert v.finish == jobs[30].arrival + 500.0
        assert [t.attempt for t in run.trials if t.job_id == 30] == [0]
        assert run.stats.trials == len(jobs)
        assert_one_attempt_in_flight(run)


class TestDeadlinesAndEDF:
    def test_edf_prioritizes_urgent_class_over_arrival_order(self):
        # batch job arrives first, interactive second, both before the
        # machine frees: EDF runs the interactive one first, FIFO doesn't
        jobs = [
            SimJob(0, 0.0),                       # occupies the machine
            SimJob(1, 1.0, slo="batch"),
            SimJob(2, 2.0, slo="interactive"),
        ]
        starts = {}
        for scheduling in ("fifo", "edf"):
            run = run_resilient(
                jobs, MachinePool(1, 1), rung_ladder, ok_outcome(50.0), scheduling
            )
            starts[scheduling] = {
                v.job_id: v.start for v in run.verdicts.values()
            }
        assert starts["fifo"][1] < starts["fifo"][2]   # arrival order
        assert starts["edf"][2] < starts["edf"][1]     # deadline order

    def test_slo_summary_counts_hits_per_class(self):
        jobs = [
            SimJob(0, 0.0, slo="interactive"),
            SimJob(1, 0.0, slo="interactive"),
            SimJob(2, 0.0, slo="best-effort"),
        ]
        # job 1 waits behind job 0 on the 1-rank machine and misses its
        # deadline with a service time just over half the budget
        service = SLO_CLASSES["interactive"].deadline * 0.6
        run = run_resilient(
            jobs, MachinePool(1, 1), rung_ladder, ok_outcome(service)
        )
        doc = slo_summary(list(run.verdicts.values()))
        assert doc["interactive"]["jobs"] == 2
        assert doc["interactive"]["deadline_hits"] == 1
        assert doc["interactive"]["hit_rate"] == pytest.approx(0.5)
        assert doc["best-effort"]["hit_rate"] == 1.0  # inf deadline


class TestDeterminismAndInvariants:
    def test_two_runs_produce_identical_stats_and_verdicts(self):
        scen = ServiceScenario(name="mix", poison_rate=0.1, seed=5)

        def outcome_for(job_id, rung, attempt, machine_id):
            if scen.is_poison(job_id):
                return AttemptOutcome(ok=False, service_time=3.0)
            return AttemptOutcome(ok=machine_id != 0 or job_id % 3 != 0,
                                  service_time=10.0)

        jobs = [SimJob(i, float(i) * 2.0) for i in range(30)]
        runs = [
            run_resilient(jobs, MachinePool(2, 1), rung_ladder, outcome_for)
            for _ in range(2)
        ]
        assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
        assert {
            j: (v.disposition, v.finish, v.machine_id)
            for j, v in runs[0].verdicts.items()
        } == {
            j: (v.disposition, v.finish, v.machine_id)
            for j, v in runs[1].verdicts.items()
        }

    def test_no_job_lost_under_mixed_chaos(self):
        scen = ServiceScenario(
            name="mix", flaky_machines=1, flaky_rate=0.7,
            straggler_rate=0.2, poison_rate=0.15, seed=9,
        )
        jobs = [SimJob(i, float(i) * 3.0) for i in range(50)]
        run = run_resilient(jobs, MachinePool(2, 2), rung_ladder, chaos_outcome(scen))
        assert_one_attempt_in_flight(run)
        assert len(run.verdicts) == 50
        assert sum(run.stats.dispositions.values()) == 50
        assert all(
            v.disposition in ("ok", "degraded", "error")
            for v in run.verdicts.values()
        )
        # every schedule row carries a terminal disposition (satellite: no
        # dropped failed jobs)
        assert len(run.schedule.jobs) == 50
        assert run.schedule.summary()["dispositions"] == {
            k: v for k, v in run.stats.dispositions.items() if v
        }

    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_one_attempt_in_flight_under_service_scenarios(self, name):
        jobs = [SimJob(i, float(i) * 3.0) for i in range(50)]
        run = run_resilient(
            jobs, MachinePool(2, 2), rung_ladder, chaos_outcome(SERVICE_SCENARIOS[name])
        )
        assert len(run.verdicts) == 50
        # the scenario bit: some attempt failed or straggled
        assert any(not t.ok or t.outcome.service_time > 10.0 for t in run.trials)
        assert_one_attempt_in_flight(run)


# ------------------------------------------------------------------ #
# heapq running queue equivalence (property test)


def _oracle_schedule(requests, pool):
    """The plain scheduler, with a sorted-list running queue — the oracle
    the event loop's heapq must match placement-for-placement."""
    reqs = [(r[0], r[1], r[2], r[3]) for r in requests]
    pending = sorted(reqs, key=lambda r: (r[1], r[0]))
    free = {m.machine_id: m.p for m in pool}
    running: list[tuple[float, int, int, int]] = []
    placed = []
    queue: list[tuple[int, float, int, float]] = []
    i = 0
    now = pending[0][1] if pending else 0.0

    def try_dispatch():
        nonlocal queue
        remaining = []
        for entry in sorted(queue, key=lambda e: (e[1], e[0])):
            job_id, arrival, p, service = entry
            best_m = None
            for m in pool:
                f = free[m.machine_id]
                if f >= p and (best_m is None or f < free[best_m]):
                    best_m = m.machine_id
            if best_m is None:
                remaining.append(entry)
                continue
            free[best_m] -= p
            running.append((now + service, best_m, p, job_id))
            running.sort()
            placed.append((job_id, best_m, now, now + service))
        queue = remaining

    while i < len(pending) or queue or running:
        next_arrival = pending[i][1] if i < len(pending) else math.inf
        next_finish = running[0][0] if running else math.inf
        now = min(next_arrival, next_finish)
        if math.isinf(now):
            break
        while running and running[0][0] <= now:
            _, m_id, p, _ = running.pop(0)
            free[m_id] += p
        while i < len(pending) and pending[i][1] <= now:
            queue.append(pending[i])
            i += 1
        try_dispatch()
    return sorted(placed)


class TestHeapqEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_heap_scheduler_matches_sorted_list_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pool = MachinePool(int(rng.integers(1, 4)), 8)
        n_jobs = int(rng.integers(5, 80))
        reqs = [
            (
                i,
                float(rng.uniform(0, 300)),
                int(rng.integers(1, 9)),
                float(rng.uniform(1, 60)),
            )
            for i in range(n_jobs)
        ]
        sched = happy_path_schedule(reqs, pool)
        got = sorted((j.job_id, j.machine_id, j.start, j.finish) for j in sched.jobs)
        assert got == _oracle_schedule(reqs, pool)
