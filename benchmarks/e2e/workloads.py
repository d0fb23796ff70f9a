"""The five workloads: what one op is, how its inputs come from the seed,
which simulated numbers it reports and how its outputs are checked.

Two regimes the literature separates are both covered: the large-(n, p)
chase-dominated solve the paper analyses (``chase_large``, its mirror image
``finish_wide``, and ``chase_observed`` on the observed code path), and the
"very small matrices" stream (arXiv:2405.00326) where per-instance overhead
dominates — what ``repro.serve`` actually receives (``serve_stream``,
``serve_durable``).

The *shape* of a serve workload (sizes, arrivals, SLO classes) is a pinned
trace: simulated latency percentiles and host cost per pass legitimately
differ by ±40 % between traces drawn from different seeds, which no
regression bound could absorb.  ``--seed`` drives every matrix the solver
sees; the program receives only those inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.bsp.params import MachineParams
from repro.eig import solve_by_name
from repro.metrics.attainment import attainment_ratios
from repro.obs.telemetry import Telemetry
from repro.serve import (
    EigenService,
    MachinePool,
    TuningCache,
    Workload,
    mixed_workload,
    verify_against_single_shot,
)
from repro.serve.bench import SERVE_PARAMS
from repro.util.matrices import clustered_spectrum, random_spectrum_symmetric, random_symmetric

#: seed of the pinned serve traces (sizes, arrivals, SLO classes)
SHAPE_SEED = 11
ALGORITHM = "eig2p5d"
#: hard accuracy check in multiples of n·ε·‖A‖₂, the forward-error scale of
#: a backward-stable solver.  Solver and LAPACK reference may each use it
#: up, and at n = 8 it is only 8 ε: the n = 8 jobs reach 1.23 over 30 seeds
#: (larger sizes stay below 0.85), so a limit of 1 fails honest runs.  A
#: genuinely wrong eigenvalue is off by thousands of multiples.
SPECTRUM_ERR_MAX = 4.0
#: summary fields that are wall-clock or cache bookkeeping, not outcomes
_VOLATILE_SUMMARY = ("wall_s", "jobs_per_s", "cache", "plan_hits", "plan_hit_rate")


def spectrum_error(a: np.ndarray, eigenvalues: np.ndarray) -> float:
    """max |λ − λ_LAPACK| in multiples of n·ε·‖A‖₂ (hard check: ≤ SPECTRUM_ERR_MAX)."""
    ref = np.linalg.eigvalsh(a)
    scale = a.shape[0] * np.finfo(np.float64).eps * max(np.abs(ref).max(), 1e-300)
    return float(np.abs(np.sort(eigenvalues) - ref).max() / scale)


def gaussian(n: int, seed: int) -> np.ndarray:
    return random_symmetric(n, seed=seed)


def clustered(n: int, seed: int) -> np.ndarray:
    return random_spectrum_symmetric(clustered_spectrum(n, 4, 1e-8, seed), seed)


class SolveWorkload:
    """One op = one ``solve_by_name("eig2p5d", machine, A, delta)``."""

    jobs_per_op = 1
    serve = durable = False

    def __init__(self, name: str, n: int, p: int, delta: float, matrix, observed: bool = False):
        self.name, self.n, self.p, self.delta = name, n, p, delta
        self.matrix, self.observed = matrix, observed

    def setup(self, seed: int, tmp: Path) -> None:
        self.a = self.matrix(self.n, seed)
        self.reference = self.op()          # the untimed warm-up op

    def machine(self, observed: bool) -> BSPMachine:
        if observed:
            return BSPMachine(self.p, spans=True, metrics=True)
        return BSPMachine(self.p)

    def op(self, observed: bool | None = None, delta: float | None = None):
        machine = self.machine(self.observed if observed is None else observed)
        return solve_by_name(ALGORITHM, machine, self.a, self.delta if delta is None else delta)

    def sim(self, result) -> dict[str, float]:
        cost = result.cost
        t = MachineParams().time(cost.flops, cost.words, cost.mem_traffic, cost.supersteps)
        return {
            "sim_time": t, "sim_words": cost.words, "sim_supersteps": float(cost.supersteps),
            "sim_latency_p50": t, "sim_latency_p90": t, "slo_hit_rate": 1.0,
        }

    def digest(self, result) -> str:
        """Identity of an op's outcome: every cost field and spectrum bit."""
        h = hashlib.sha256(repr(result.cost).encode())
        h.update(np.ascontiguousarray(result.eigenvalues).tobytes())
        return h.hexdigest()

    def check(self, results: list) -> tuple[list[str], int, float]:
        """(named failures, failed ops, spectrum_err) over the timed ops."""
        failures, failed = [], 0
        err = spectrum_error(self.a, results[0].eigenvalues)
        if not err <= SPECTRUM_ERR_MAX:
            failures.append(f"spectrum_err {err:.3g} > {SPECTRUM_ERR_MAX:g}")
            failed = len(results)           # every op returned this spectrum
        want = self.digest(self.reference)
        for i, r in enumerate(results):
            if self.digest(r) != want:
                failures.append(f"op {i}: cost or spectrum differs from the warm-up op")
                failed = min(len(results), failed + 1)
        return failures, failed, err

    def stage_entries(self, result) -> list[dict]:
        return attainment_ratios(result.stages, result.stage_meta)

    def descriptor(self) -> dict[str, Any]:
        r = self.reference
        return {
            "kind": "solve", "n": self.n, "p": self.p, "delta_requested": self.delta,
            "delta": r.delta, "c": r.replication, "b0": r.initial_bandwidth,
            "observed": self.observed, "matrix": self.matrix.__name__,
            "stages": [name for name, _ in r.stages],
        }


def _summary(report) -> dict[str, Any]:
    return {k: v for k, v in report.summary().items() if k not in _VOLATILE_SUMMARY}


class ServeWorkload:
    """One call = one pass of the pinned job stream through a fresh
    ``EigenService``; one op = one served job (``jobs_per_op`` per call)."""

    serve = True
    observed = False

    def __init__(self, name: str, total_jobs: int, shape_seed: int, durable: bool):
        self.name, self.total_jobs, self.shape_seed = name, total_jobs, shape_seed
        self.durable = durable

    def setup(self, seed: int, tmp: Path) -> None:
        shape = mixed_workload(total_jobs=self.total_jobs, seed=self.shape_seed)
        jobs = [
            dataclasses.replace(j, seed=(seed * 1_000_003 + j.job_id * 7919) % (2**31 - 1))
            for j in shape.jobs
        ]
        self.workload = Workload(jobs, {**shape.descriptor, "matrix_seed": seed})
        self.jobs_per_op = len(jobs)
        self.cache_path = tmp / "tuning_cache.json"
        self.journal_path = tmp / "journal.jsonl"
        self.cold_plan_s = self.cold_plan()
        self.reference = self.op()          # the untimed warm-up pass

    def cold_plan(self) -> float:
        """Plan the size menu against an empty cache and persist it."""
        self.cache_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        cache = TuningCache(self.cache_path)
        service = EigenService(MachinePool(4, 16, SERVE_PARAMS), cache)
        for n in self.workload.sizes():
            service.plan(n)
        cache.save()
        return time.perf_counter() - t0

    def service(self) -> EigenService:
        pool = MachinePool(4, 16, SERVE_PARAMS)
        cache = TuningCache(self.cache_path)      # reloaded from disk each pass
        if not self.durable:
            return EigenService(pool, cache)
        return EigenService(pool, cache, scenario="flaky-machine",
                            journal=self.journal_path, telemetry=Telemetry())

    def op(self):
        self.journal_path.unlink(missing_ok=True)
        return self.service().run_workload(self.workload)

    def resume(self):
        """A second pass over the now-complete journal (durable only)."""
        return self.service().run_workload(self.workload)

    def sim(self, report) -> dict[str, float]:
        charged = report.resilience["charged"]
        inter = [r for r in report.results if r.slo == "interactive"]
        hits = sum(r.ok and r.deadline_hit for r in inter)
        return {
            "sim_time": charged["service_time"], "sim_words": charged["words"],
            "sim_supersteps": charged["supersteps"],
            "sim_latency_p50": report.schedule.percentile(50.0),
            "sim_latency_p90": report.schedule.percentile(90.0),
            "slo_hit_rate": hits / len(inter),
        }

    def digest(self, report) -> str:
        """Identity of a pass's outcome: the deterministic summary plus
        every job's status and spectrum bits."""
        h = hashlib.sha256(json.dumps(_summary(report), sort_keys=True).encode())
        for r in report.results:
            h.update(f"{r.job_id}:{r.status};".encode())
            if r.eigenvalues is not None:
                h.update(np.ascontiguousarray(r.eigenvalues).tobytes())
        return h.hexdigest()

    def check(self, reports: list) -> tuple[list[str], int, float]:
        failures, failed, err = [], 0, 0.0
        last = reports[-1]
        if len(last.results) != len(self.workload.jobs):
            failures.append(
                f"submitted {len(self.workload.jobs)} jobs, settled {len(last.results)}")
        bad_jobs = {r.job_id for r in last.results if not r.ok}
        for r in last.results:
            if r.ok:
                e = spectrum_error(random_symmetric(r.n, seed=r.seed), r.eigenvalues)
                err = max(err, e)
                if not e <= SPECTRUM_ERR_MAX:
                    bad_jobs.add(r.job_id)
                    failures.append(f"job {r.job_id}: spectrum_err {e:.3g} > {SPECTRUM_ERR_MAX:g}")
            else:
                failures.append(f"job {r.job_id}: ended {r.status} ({r.error_type})")
        mismatches = verify_against_single_shot(last.results, SERVE_PARAMS)
        failures += mismatches
        failed += len(bad_jobs) + len(mismatches)
        want = self.digest(self.reference)
        for i, rep in enumerate(reports):
            if self.digest(rep) != want:
                failures.append(f"pass {i}: summary or spectra differ from the warm-up pass")
                failed += len(rep.results)
        return failures, failed, err

    def stage_entries(self, report) -> list[dict]:
        return [e for r in report.results for e in r.attainment]

    def descriptor(self) -> dict[str, Any]:
        rep = self.reference
        return {
            "kind": "serve", "jobs": len(self.workload), "shape_seed": self.shape_seed,
            "durable": self.durable, "sizes": {str(k): v for k, v in self.workload.sizes().items()},
            "regimes": rep.regimes(), "pool": rep.pool,
            "scenario": "flaky-machine" if self.durable else None,
            "deltas": sorted({round(r.plan.delta, 6) for r in rep.results}),
        }


def build(name: str):
    """Construct the named workload (inputs are generated in ``setup``)."""
    if name == "chase_large":
        return SolveWorkload(name, 512, 256, 2.0 / 3.0, gaussian)
    if name == "finish_wide":
        return SolveWorkload(name, 384, 16, 0.5, clustered)
    if name == "chase_observed":
        return SolveWorkload(name, 256, 64, 2.0 / 3.0, gaussian, observed=True)
    if name == "serve_stream":
        return ServeWorkload(name, 200, SHAPE_SEED, durable=False)
    if name == "serve_durable":
        return ServeWorkload(name, 120, SHAPE_SEED + 1, durable=True)
    raise ValueError(f"unknown workload {name!r}")
