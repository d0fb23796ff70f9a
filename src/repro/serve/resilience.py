"""Service-level resilience: deadlines, retries, quarantine.

One simulated-time event loop (:func:`run_resilient`) drives every job of a
served workload to a terminal disposition under fixed rules; the only
setting is the dispatch order, ``scheduling="fifo" | "edf"``:

* **SLO classes / deadlines** — every :class:`~repro.serve.workload.JobSpec`
  carries an SLO class name; :data:`SLO_CLASSES` maps it to a relative
  deadline budget in simulated BSP time.  Deadlines are *measured* (the
  report carries per-class hit rates) and, under ``scheduling="edf"``,
  *enforced as priority*: the dispatch scan orders the ready queue by
  absolute deadline (earliest-deadline-first) instead of arrival.
* **Retry budget + escalation ladder** — a failed attempt is retried on a
  seeded exponential-backoff timer (:func:`retry_delay`: deterministic
  jitter, never wall clock) up to :data:`RETRY_BUDGET` extra attempts,
  escalating same-plan retry → grid-shrink replan (through the tuning
  cache) → replicated single-rank solve.  The ladder runs whether or not
  fault injection is configured: any typed error outcome triggers it.
* **Machine health / quarantine** — a per-machine circuit breaker fed by
  attempt outcomes.  :data:`BREAKER_THRESHOLD` consecutive failures open
  the breaker (the machine drains: running attempts finish, no new
  placements); after :data:`BREAKER_COOLDOWN` simulated time it goes
  half-open and re-admits exactly one *probe* attempt — success closes the
  breaker, failure re-opens it with a cooldown scaled by
  :data:`BREAKER_COOLDOWN_FACTOR`.

Every decision is a pure function of the simulated clock and seeded
draws, so two runs of the same workload + scenario produce identical
reports — which is what lets the chaos scenarios here
(:data:`SERVICE_SCENARIOS`: flaky-machine, straggler, poison-job) be CI
gates rather than flaky wall-clock tests.  The loop guarantees **no job
lost**: every submitted job reaches exactly one terminal disposition in
``ok | degraded | error``; and **one attempt in flight**: a job's next
attempt is dispatched only after its previous one finished, so no two
attempts of one job ever race.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence

from repro.obs.telemetry import BREAKER_STATE_CODES, NO_TELEMETRY
from repro.serve.pool import MachinePool
from repro.serve.scheduler import Schedule, ScheduledJob

#: terminal dispositions a job can reach (the no-job-lost invariant says
#: every submitted job reaches exactly one of these)
DISPOSITIONS = ("ok", "degraded", "error")


# ------------------------------------------------------------------ #
# deterministic draws (no wall clock, no shared RNG state)


def _hash01(*keys: int) -> float:
    """A seeded uniform draw in [0, 1) from integer keys (FNV-1a).

    Pure integer arithmetic — identical on every host and independent of
    call order, unlike a shared RNG stream.
    """
    h = 0xCBF29CE484222325
    for k in keys:
        for byte in int(k).to_bytes(8, "little", signed=True):
            h = ((h ^ byte) * 0x100000001B3) % (2**64)
    return (h >> 11) / float(2**53)


# ------------------------------------------------------------------ #
# SLO classes


@dataclass(frozen=True)
class SLOClass:
    """One service-level objective: a relative deadline budget.

    ``deadline`` is in simulated BSP time units (the units of
    :meth:`repro.bsp.params.MachineParams.time`); a job's absolute
    deadline is ``arrival + deadline``.  ``inf`` means measured-only.
    """

    name: str
    deadline: float


#: the shipped SLO menu.  Budgets are calibrated against the pinned
#: serve-bench profile (sim latency p50 ≈ 2e5, p99 ≈ 1e7): "interactive"
#: is hittable for the small-n bulk but missed by queued heavy tails,
#: "batch" only by pathological stragglers, "best-effort" never.
SLO_CLASSES: dict[str, SLOClass] = {
    "interactive": SLOClass("interactive", 1.5e6),
    "batch": SLOClass("batch", 3.0e7),
    "best-effort": SLOClass("best-effort", math.inf),
}

DEFAULT_SLO = "batch"


def deadline_for(slo: str, arrival: float) -> float:
    """Absolute deadline of a job with SLO class ``slo`` arriving at ``arrival``."""
    return arrival + SLO_CLASSES[slo].deadline


# ------------------------------------------------------------------ #
# the fixed rules: retry ladder, breaker, dispatch order

#: extra attempts after the primary, one escalation-ladder rung each
RETRY_BUDGET = 3
#: the k-th retry waits ``RETRY_BACKOFF_BASE * RETRY_BACKOFF_FACTOR**(k-1)``
#: simulated time units, scaled by ``1 + RETRY_JITTER * u``
RETRY_BACKOFF_BASE = 2.0e4
RETRY_BACKOFF_FACTOR = 2.0
RETRY_JITTER = 0.25

#: consecutive failures that open a machine's breaker
BREAKER_THRESHOLD = 3
#: simulated time an open breaker waits before going half-open
BREAKER_COOLDOWN = 5.0e5
#: cooldown multiplier applied when a half-open probe fails
BREAKER_COOLDOWN_FACTOR = 2.0

#: dispatch orders of the ready queue: arrival, or earliest deadline first
SCHEDULING = ("fifo", "edf")


def retry_delay(job_id: int, attempt: int) -> float:
    """Backoff before retry ``attempt`` of ``job_id``.

    ``u`` in the scale is a deterministic per-(job, attempt) draw —
    decorrelated like production backoff, reproducible like a test.
    """
    base = RETRY_BACKOFF_BASE * RETRY_BACKOFF_FACTOR ** max(0, attempt - 1)
    return base * (1.0 + RETRY_JITTER * _hash01(job_id, attempt, 0xB0FF))


def check_scheduling(scheduling: str) -> str:
    """``scheduling`` itself, or a ValueError naming the two choices."""
    if scheduling not in SCHEDULING:
        raise ValueError(f"scheduling must be 'fifo' or 'edf', got {scheduling!r}")
    return scheduling


def check_job(job_id: int, arrival: float, slo: str) -> None:
    """Reject a job the loop cannot serve as asked: a non-finite arrival
    is never reached by the simulated clock, and an unknown SLO class
    has no deadline."""
    if not math.isfinite(arrival):
        raise ValueError(f"job {job_id}: arrival must be finite, got {arrival!r}")
    if slo not in SLO_CLASSES:
        raise ValueError(
            f"job {job_id}: unknown SLO class {slo!r}; choose from {sorted(SLO_CLASSES)}"
        )


# ------------------------------------------------------------------ #
# service-level chaos scenarios


@dataclass(frozen=True)
class ServiceScenario:
    """A seeded service-level failure mode (distinct from the solver-level
    :data:`repro.faults.plan.SCENARIOS`, which corrupt a single solve).

    * ``flaky_machines`` — attempts placed on the lowest-id machines of
      the pool fail with a typed error with probability ``flaky_rate``
      (a bad node: thermal throttling, a sick NIC — the cause doesn't
      matter, the breaker only sees outcomes); healthy machines stay
      clean, so the same retry landing elsewhere succeeds.  This is what
      the quarantine breaker exists to drain.
    * ``straggler_rate`` / ``straggler_factor`` — a seeded fraction of
      attempts take ``factor`` times their modeled service time (slow
      node, contention); the spectrum is untouched.  The slow attempt runs
      alone to completion: its job's latency and deadline absorb it.
    * ``poison_rate`` — a seeded fraction of jobs fail *every* attempt
      with a typed error (a request that trips a bug wherever it runs);
      the retry ladder must exhaust and surface ``error``, never loop.
    """

    name: str
    flaky_machines: int = 0
    flaky_rate: float = 0.9
    straggler_rate: float = 0.0
    straggler_factor: float = 8.0
    poison_rate: float = 0.0
    seed: int = 0

    def is_poison(self, job_id: int) -> bool:
        return self.poison_rate > 0 and _hash01(self.seed, job_id, 0x101) < self.poison_rate

    def is_straggler(self, job_id: int, attempt: int) -> bool:
        return (
            self.straggler_rate > 0
            and _hash01(self.seed, job_id, attempt, 0x202) < self.straggler_rate
        )

    def is_flaky_attempt(self, machine_id: int, job_id: int, attempt: int) -> bool:
        if machine_id >= self.flaky_machines:
            return False
        return _hash01(self.seed, machine_id, job_id, attempt, 0x303) < self.flaky_rate

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


#: the chaos harness's service-level scenario menu (``repro serve-bench
#: --soak --faults <name>`` and the nightly matrix run these)
SERVICE_SCENARIOS: dict[str, ServiceScenario] = {
    "flaky-machine": ServiceScenario(name="flaky-machine", flaky_machines=1),
    "straggler": ServiceScenario(
        name="straggler", straggler_rate=0.15, straggler_factor=8.0
    ),
    "poison-job": ServiceScenario(name="poison-job", poison_rate=0.08),
}


# ------------------------------------------------------------------ #
# machine health (circuit breaker)


@dataclass
class MachineHealth:
    """Breaker state of one pool machine, fed by attempt outcomes."""

    machine_id: int
    cooldown: float
    state: str = "closed"  # "closed" | "open" | "half-open"
    consecutive_failures: int = 0
    probe_in_flight: bool = False
    quarantines: int = 0
    probes: int = 0
    failures: int = 0
    successes: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "machine_id": self.machine_id,
            "state": self.state,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "failures": self.failures,
            "successes": self.successes,
        }


# ------------------------------------------------------------------ #
# loop inputs and outputs


@dataclass(frozen=True)
class SimJob:
    """One job as the resilient loop sees it (matrix data stays outside)."""

    job_id: int
    arrival: float
    slo: str = DEFAULT_SLO

    @property
    def deadline(self) -> float:
        return deadline_for(self.slo, self.arrival)


@dataclass
class AttemptOutcome:
    """What one executed attempt produced, in simulated terms.

    ``payload`` carries whatever the caller needs to build its final
    result (eigenvalues, cost dict, error text) — the loop only reads
    ``ok``, ``service_time`` and ``sim_cost``.
    """

    ok: bool
    service_time: float
    sim_cost: dict[str, float] = field(default_factory=dict)
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Rung:
    """One step of the escalation ladder: the plan an attempt runs under."""

    p: int
    delta: float
    kind: str = "primary"  # "primary" | "same-plan" | "grid-shrink" | "replicated"


@dataclass
class Trial:
    """One executed attempt (primary or retry; either may be a probe)."""

    job_id: int
    attempt: int
    kind: str  # "primary" | "retry"
    rung: Rung
    machine_id: int
    start: float
    finish: float
    ok: bool
    outcome: AttemptOutcome
    probe: bool = False


@dataclass
class JobVerdict:
    """Terminal state of one job: exactly one per submitted job."""

    job_id: int
    disposition: str  # see DISPOSITIONS
    arrival: float
    start: float
    finish: float
    slo: str
    deadline: float
    rung: Rung
    machine_id: int
    attempts: int
    retries: int
    outcome: AttemptOutcome

    @property
    def deadline_hit(self) -> bool:
        return self.finish <= self.deadline


@dataclass
class ResilienceStats:
    """Deterministic counters of one resilient run (report/gate food)."""

    dispositions: dict[str, int] = field(
        default_factory=lambda: {d: 0 for d in DISPOSITIONS}
    )
    retries: int = 0
    quarantines: int = 0
    probes: int = 0
    trials: int = 0
    charged: dict[str, float] = field(
        default_factory=lambda: {
            "flops": 0.0, "words": 0.0, "mem_traffic": 0.0,
            "supersteps": 0.0, "service_time": 0.0,
        }
    )

    def as_dict(self) -> dict[str, Any]:
        return {
            "dispositions": dict(self.dispositions),
            "retries": self.retries,
            # always 0: benchmarks/e2e/leg.py still reads both keys
            "hedges": 0,
            "hedge_wins": 0,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "trials": self.trials,
            "charged": dict(self.charged),
        }


def slo_summary(verdicts: Sequence[JobVerdict]) -> dict[str, Any]:
    """Per-SLO-class deadline hit rates over a run's terminal verdicts."""
    out: dict[str, Any] = {}
    for v in sorted(verdicts, key=lambda v: v.job_id):
        entry = out.setdefault(
            v.slo,
            {"deadline": SLO_CLASSES[v.slo].deadline, "jobs": 0, "deadline_hits": 0},
        )
        entry["jobs"] += 1
        entry["deadline_hits"] += int(v.deadline_hit)
    for entry in out.values():
        entry["hit_rate"] = (
            entry["deadline_hits"] / entry["jobs"] if entry["jobs"] else 0.0
        )
    return dict(sorted(out.items()))


# ------------------------------------------------------------------ #
# the resilient event loop


@dataclass
class ResilientRun:
    """Everything the loop produced: verdicts, trials, schedule, stats."""

    verdicts: dict[int, JobVerdict]
    trials: list[Trial]
    schedule: Schedule
    stats: ResilienceStats
    health: list[dict[str, Any]]


class _JobState:
    __slots__ = ("job", "failures", "in_flight", "verdict", "first_start", "trial_count")

    def __init__(self, job: SimJob):
        self.job = job
        self.failures = 0
        self.in_flight: int | None = None  # index of the running trial
        self.verdict: JobVerdict | None = None
        self.first_start = math.inf
        self.trial_count = 0


def run_resilient(
    jobs: Sequence[SimJob],
    pool: MachinePool,
    rung_for: Callable[[int, int], Rung],
    outcome_for: Callable[[int, Rung, int, int], AttemptOutcome],
    scheduling: str = "fifo",
    on_terminal: Callable[[JobVerdict], None] | None = None,
    telemetry: Any = NO_TELEMETRY,
) -> ResilientRun:
    """Drive every job to a terminal disposition in exact simulated time.

    ``rung_for(job_id, failures)`` maps a job's failure count to the
    escalation-ladder plan of its next attempt; a job still failing after
    :data:`RETRY_BUDGET` retries settles as ``error``.  ``outcome_for(job_id,
    rung, attempt, machine_id)`` executes one attempt — it may run a real
    (memoized) solve, so the *loop* is where wall-clock work happens, but
    no wall-clock value ever enters a decision.  ``on_terminal`` fires
    exactly once per job, in simulated-completion order — the journal's
    write-ahead hook.

    Dispatch is a FIFO scan with backfill and best-fit placement (fewest
    free ranks that still fit, ties to the lowest machine id).  Under
    ``scheduling="edf"`` the scan order is (deadline, arrival, job_id)
    instead of (arrival, job_id).

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`, default the
    inert :data:`~repro.obs.telemetry.NO_TELEMETRY`) observes every
    lifecycle transition and samples the loop's gauges — strictly
    read-only: no decision in this function reads telemetry state, so the
    run is bit-identical with it on or off.
    """
    check_scheduling(scheduling)
    order = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
    states = {j.job_id: _JobState(j) for j in order}
    if len(states) != len(order):
        raise ValueError("duplicate job ids in resilient workload")
    for j in order:
        check_job(j.job_id, j.arrival, j.slo)

    free = {m.machine_id: m.p for m in pool}
    health = {m.machine_id: MachineHealth(m.machine_id, BREAKER_COOLDOWN) for m in pool}
    stats = ResilienceStats()
    trials: list[Trial] = []
    running: list[tuple[float, int, int]] = []  # (finish, seq, trial_idx)
    # (time, seq, key, rung): a retry of job ``key`` on ``rung``, or the end
    # of machine ``key``'s breaker cooldown when ``rung`` is None
    timers: list[tuple[float, int, int, Rung | None]] = []
    ready: list[tuple[int, int, str, Rung]] = []  # (seq, job_id, kind, rung)
    seq = 0
    i = 0  # next arrival
    now = order[0].arrival if order else 0.0

    def settle_trial(trial: Trial, disposition: str, retries: int) -> None:
        """Settle a job on the outcome of its last (and only running) trial."""
        st = states[trial.job_id]
        verdict = JobVerdict(
            job_id=trial.job_id,
            disposition=disposition,
            arrival=st.job.arrival,
            start=st.first_start,
            finish=trial.finish,
            slo=st.job.slo,
            deadline=st.job.deadline,
            rung=trial.rung,
            machine_id=trial.machine_id,
            attempts=st.trial_count,
            retries=retries,
            outcome=trial.outcome,
        )
        st.verdict = verdict
        stats.dispositions[disposition] += 1
        if telemetry.enabled:
            latency = verdict.finish - verdict.arrival
            telemetry.emit(
                "terminal", verdict.finish, job=trial.job_id,
                disposition=disposition, slo=verdict.slo,
                latency=latency, deadline_hit=verdict.deadline_hit,
                attempts=verdict.attempts, retries=retries,
                machine=verdict.machine_id,
            )
            telemetry.counter(f"jobs_{disposition}")
            telemetry.observe_latency(verdict.slo, latency)
        if on_terminal is not None:
            on_terminal(verdict)

    def breaker_event(machine_id: int, prev: str, state: str) -> None:
        telemetry.emit("breaker", now, machine=machine_id, prev=prev, state=state)

    def feed_health(machine_id: int, ok: bool) -> None:
        nonlocal seq
        h = health[machine_id]
        if ok:
            h.successes += 1
            if h.state == "half-open":
                h.state = "closed"
                h.cooldown = BREAKER_COOLDOWN
                breaker_event(machine_id, "half-open", "closed")
            h.consecutive_failures = 0
            return
        h.failures += 1
        if h.state == "half-open":
            # the probe failed: re-open with a longer cooldown
            h.state = "open"
            h.cooldown *= BREAKER_COOLDOWN_FACTOR
            h.quarantines += 1
            stats.quarantines += 1
            breaker_event(machine_id, "half-open", "open")
            telemetry.counter("quarantines")
            seq += 1
            heapq.heappush(timers, (now + h.cooldown, seq, machine_id, None))
        elif h.state == "closed":
            h.consecutive_failures += 1
            if h.consecutive_failures >= BREAKER_THRESHOLD:
                h.state = "open"
                h.quarantines += 1
                stats.quarantines += 1
                breaker_event(machine_id, "closed", "open")
                telemetry.counter("quarantines")
                seq += 1
                heapq.heappush(timers, (now + h.cooldown, seq, machine_id, None))

    def finish_trial(idx: int) -> None:
        nonlocal seq
        trial = trials[idx]
        free[trial.machine_id] += trial.rung.p
        st = states[trial.job_id]
        st.in_flight = None
        if trial.probe:
            health[trial.machine_id].probe_in_flight = False
        if telemetry.enabled:
            telemetry.emit(
                "attempt_end", trial.finish, job=trial.job_id,
                attempt=trial.attempt, kind=trial.kind, machine=trial.machine_id,
                ok=trial.ok,
            )
        feed_health(trial.machine_id, trial.ok)
        if trial.ok:
            disposition = "ok" if trial.rung.kind in ("primary", "same-plan") else "degraded"
            settle_trial(trial, disposition, st.failures)
            return
        st.failures += 1
        if st.failures > RETRY_BUDGET:
            settle_trial(trial, "error", st.failures - 1)
            return
        rung = rung_for(trial.job_id, st.failures)
        fire_at = now + retry_delay(trial.job_id, st.failures)
        if telemetry.enabled:
            telemetry.emit(
                "retry_scheduled", now, job=trial.job_id,
                failures=st.failures, fire_at=fire_at,
            )
        seq += 1
        heapq.heappush(timers, (fire_at, seq, trial.job_id, rung))

    def handle_timer(key: int, rung: Rung | None) -> None:
        nonlocal seq
        if rung is None:  # machine ``key``'s cooldown ended
            if health[key].state == "open":
                health[key].state = "half-open"
                breaker_event(key, "open", "half-open")
            return
        # job ``key``'s failed attempt has finished; ``rung`` is the ladder
        # step finish_trial picked for the next one
        stats.retries += 1
        if telemetry.enabled:
            telemetry.emit("retry_fire", now, job=key, rung=rung.kind)
            telemetry.counter("retries")
        seq += 1
        ready.append((seq, key, "retry", rung))

    def admit(job: SimJob) -> None:
        nonlocal seq
        if telemetry.enabled:
            telemetry.emit(
                "submit", job.arrival, job=job.job_id, slo=job.slo,
                deadline=job.deadline if math.isfinite(job.deadline) else None,
            )
        seq += 1
        ready.append((seq, job.job_id, "primary", rung_for(job.job_id, 0)))

    def queue_key(entry: tuple[int, int, str, Rung]) -> tuple:
        entry_seq, job_id, _, _ = entry
        job = states[job_id].job
        if scheduling == "edf":
            return (job.deadline, job.arrival, job_id, entry_seq)
        return (job.arrival, job_id, entry_seq)

    def eligible_machine(p: int) -> tuple[int | None, bool]:
        """Best-fit machine for ``p`` ranks honoring breaker state.

        Returns ``(machine_id, is_probe)``; half-open machines take one
        probe attempt at a time and only when no closed machine fits.
        """
        best: int | None = None
        for m in pool:
            if health[m.machine_id].state != "closed":
                continue
            f = free[m.machine_id]
            if f >= p and (best is None or f < free[best]):
                best = m.machine_id
        if best is not None:
            return best, False
        for m in pool:
            h = health[m.machine_id]
            if h.state != "half-open" or h.probe_in_flight:
                continue
            f = free[m.machine_id]
            if f >= p and (best is None or f < free[best]):
                best = m.machine_id
        return best, best is not None

    def dispatch() -> None:
        nonlocal seq, ready
        remaining: list[tuple[int, int, str, Rung]] = []
        for entry in sorted(ready, key=queue_key):
            _, job_id, kind, rung = entry
            machine_id, probe = eligible_machine(rung.p)
            if machine_id is None:
                remaining.append(entry)
                continue
            st = states[job_id]
            # a job is queued only at admission or when its retry timer
            # fires, both with no attempt of it running
            assert st.in_flight is None, f"job {job_id}: two attempts in flight"
            attempt = st.trial_count
            st.trial_count += 1
            outcome = outcome_for(job_id, rung, attempt, machine_id)
            free[machine_id] -= rung.p
            finish = now + outcome.service_time
            idx = len(trials)
            trials.append(
                Trial(
                    job_id=job_id,
                    attempt=attempt,
                    kind=kind,
                    rung=rung,
                    machine_id=machine_id,
                    start=now,
                    finish=finish,
                    ok=outcome.ok,
                    probe=probe,
                    outcome=outcome,
                )
            )
            st.in_flight = idx
            st.first_start = min(st.first_start, now)
            stats.trials += 1
            for fld in ("flops", "words", "mem_traffic", "supersteps"):
                stats.charged[fld] += outcome.sim_cost.get(fld, 0.0)
            stats.charged["service_time"] += outcome.service_time
            if probe:
                h = health[machine_id]
                h.probe_in_flight = True
                h.probes += 1
                stats.probes += 1
            if telemetry.enabled:
                telemetry.emit(
                    "dispatch", now, job=job_id, attempt=attempt, kind=kind,
                    rung=rung.kind, p=rung.p, machine=machine_id, probe=probe,
                    ok=outcome.ok, finish=finish,
                )
                telemetry.counter("dispatches")
                if probe:
                    telemetry.counter("probes")
            seq += 1
            heapq.heappush(running, (finish, seq, idx))
        ready = remaining

    def sample_series() -> None:
        """Change-only gauge sampling at the current loop step (read-only)."""
        telemetry.gauge("queue_depth", now, float(len(ready)))
        for m in pool:
            mid = m.machine_id
            telemetry.gauge(
                f"machine{mid}/busy_ranks", now, float(m.p - free[mid])
            )
            telemetry.gauge(
                f"machine{mid}/breaker", now,
                float(BREAKER_STATE_CODES[health[mid].state]),
            )

    while i < len(order) or ready or running or timers:
        next_arrival = order[i].arrival if i < len(order) else math.inf
        next_finish = running[0][0] if running else math.inf
        next_timer = timers[0][0] if timers else math.inf
        now = min(next_arrival, next_finish, next_timer)
        if math.isinf(now):
            stuck = [e[1] for e in ready]
            raise RuntimeError(
                f"resilient loop stalled with jobs {stuck} queued and no "
                "running work, arrivals, or timers (planner/pool mismatch?)"
            )
        while running and running[0][0] <= now:
            _, _, idx = heapq.heappop(running)
            finish_trial(idx)
        while timers and timers[0][0] <= now:
            _, _, key, rung = heapq.heappop(timers)
            handle_timer(key, rung)
        while i < len(order) and order[i].arrival <= now:
            admit(order[i])
            i += 1
        dispatch()
        if telemetry.enabled:
            sample_series()

    verdicts = {j: st.verdict for j, st in states.items() if st.verdict is not None}
    missing = sorted(set(states) - set(verdicts))
    if missing:  # the no-job-lost invariant, enforced structurally
        raise RuntimeError(f"jobs {missing} never reached a terminal disposition")

    rows = [
        ScheduledJob(
            job_id=v.job_id,
            machine_id=v.machine_id,
            p=v.rung.p,
            arrival=v.arrival,
            start=v.start,
            finish=v.finish,
            disposition=v.disposition,
            attempts=v.attempts,
        )
        for v in sorted(verdicts.values(), key=lambda v: v.job_id)
    ]
    busy = sum(t.rung.p * (t.finish - t.start) for t in trials)
    if rows:
        t0 = min(r.arrival for r in rows)
        t1 = max([r.finish for r in rows] + [t.finish for t in trials])
        makespan = t1 - t0
    else:
        makespan = 0.0
    util = busy / (pool.total_ranks * makespan) if makespan > 0 else 0.0
    schedule = Schedule(
        jobs=rows, makespan=makespan, utilization=util, busy_rank_time=busy
    )
    return ResilientRun(
        verdicts=verdicts,
        trials=trials,
        schedule=schedule,
        stats=stats,
        health=[health[m.machine_id].as_dict() for m in pool],
    )
