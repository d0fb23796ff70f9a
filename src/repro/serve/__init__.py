"""repro.serve — the batched eigensolver service.

Real consumers (DFT/SCF codes, per-k-point diagonalization) submit
*streams* of moderate eigenproblems, not one matrix per process.  This
package turns the repo's single-shot solver into a served system:

==================  ====================================================
:mod:`~repro.serve.workload`   seeded SCF / Zipf / Poisson workload traces
:mod:`~repro.serve.cache`      persistent δ-autotuning cache (versioned
                               on-disk JSON, fingerprint invalidation)
:mod:`~repro.serve.planner`    per-shape regime routing: rank count + δ
:mod:`~repro.serve.pool`       the fleet of simulated BSP machines
:mod:`~repro.serve.scheduler`  the schedule a run produces (per-job rows,
                               latency percentiles, utilization)
:mod:`~repro.serve.resilience` SLO deadlines/EDF, retry ladder, machine
                               quarantine, admission control — one
                               deterministic event loop, one attempt per
                               job in flight
:mod:`~repro.serve.journal`    crash-safe write-ahead job journal
                               (fsync'd JSONL, resume without recompute)
:mod:`~repro.serve.service`    the request pipeline (plan → solve →
                               schedule)
:mod:`~repro.serve.bench`      ``repro serve-bench`` + the CI gate
==================  ====================================================

Quickstart::

    from repro.serve import EigenService, MachinePool, TuningCache, mixed_workload

    pool = MachinePool(machines=4, p=16)
    service = EigenService(pool, TuningCache("tuning_cache.json"))
    report = service.run_workload(mixed_workload(total_jobs=50, seed=1))
    print(report.summary())

See ``docs/serving.md`` for the architecture and the benchmark format.
"""

from repro.serve.cache import (
    TuningCache,
    cache_key,
    cached_best_delta,
    cached_replan_delta,
    model_fingerprint,
)
from repro.serve.journal import JobJournal, read_journal
from repro.serve.planner import Plan, candidate_ranks, plan_job
from repro.serve.pool import MachinePool, PoolMachine
from repro.serve.resilience import (
    DISPOSITIONS,
    SERVICE_SCENARIOS,
    SLO_CLASSES,
    AdmissionPolicy,
    QuarantinePolicy,
    ResiliencePolicy,
    RetryPolicy,
    ServiceScenario,
    run_resilient,
)
from repro.serve.scheduler import Schedule, ScheduledJob
from repro.serve.service import (
    EigenService,
    JobResult,
    ServeReport,
    single_shot_eigenvalues,
    verify_against_single_shot,
)
from repro.serve.workload import (
    JobSpec,
    Workload,
    mixed_workload,
    scf_trace,
    zipf_stream,
)

__all__ = [
    "TuningCache",
    "cache_key",
    "cached_best_delta",
    "cached_replan_delta",
    "model_fingerprint",
    "JobJournal",
    "read_journal",
    "DISPOSITIONS",
    "SERVICE_SCENARIOS",
    "SLO_CLASSES",
    "AdmissionPolicy",
    "QuarantinePolicy",
    "ResiliencePolicy",
    "RetryPolicy",
    "ServiceScenario",
    "run_resilient",
    "Plan",
    "candidate_ranks",
    "plan_job",
    "MachinePool",
    "PoolMachine",
    "Schedule",
    "ScheduledJob",
    "EigenService",
    "JobResult",
    "ServeReport",
    "single_shot_eigenvalues",
    "verify_against_single_shot",
    "JobSpec",
    "Workload",
    "mixed_workload",
    "scf_trace",
    "zipf_stream",
]
