"""The ``repro serve-bench`` service benchmark and its exact CI gate.

Three passes of the pinned seeded workload run through the service:

* **cold** — the persistent tuning cache starts absent: every distinct
  shape plans from scratch (in-pass repeats already hit);
* **warm** — a *fresh* service instance reloads the cache file the cold
  pass persisted, demonstrating cross-process reuse: the plan hit rate
  must reach :data:`HIT_RATE_FLOOR` (the acceptance gate is ≥ 80%; with a
  correct store it is 100%);
* **edf** — the warm workload re-served under earliest-deadline-first
  dispatch (``EigenService(..., scheduling="edf")``): same plans, same
  spectra, only the simulated queue order may differ — the SLO section
  shows what deadline-aware dispatch buys the interactive class.

The document written to ``benchmarks/results/BENCH_serve.json`` (and
committed at the repo root as the baseline) carries, per pass: wall-clock
throughput (jobs/s), simulated-latency percentiles (p50/p99 in BSP time
units), pool utilization, the regime histogram of the planner's routing,
exact simulated cost totals, and cache statistics; plus the byte-identity
verification of every served spectrum against a single-shot solve, and
the per-job bound-attainment roll-up.

``check_serve`` gates a fresh run against the committed baseline with the
same split as ``repro bench``: **simulated quantities compare exactly**
(they are deterministic — drift means the accounting or the scheduler
changed and the baseline must be recommitted deliberately), and
**wall-clock throughput** (``wall_s`` / ``jobs_per_s``) is recorded but
never compared — host time on this very job mix is gated by the repo
benchmark's ``serve_stream`` workload (``benchmarks/e2e`` ``--compare``,
paired runs), so this gate cannot fail on a timing.

``run_soak`` (``--soak``) serves a small workload under one chaos
scenario with a journal, then resumes from every prefix of that journal
in-process — every state a crash can leave — and checks each resume
against the uninterrupted run.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench import BenchError, exact_diff
from repro.bsp.params import MachineParams
from repro.metrics.attainment import attainment_rollup
from repro.obs.dash import write_dash
from repro.obs.perfetto import write_merged_trace
from repro.obs.report import build_telemetry_doc
from repro.obs.telemetry import Telemetry
from repro.serve.cache import TuningCache
from repro.serve.journal import JobJournal, JournalError, read_journal
from repro.serve.pool import MachinePool
from repro.serve.resilience import SERVICE_SCENARIOS
from repro.serve.service import (
    EigenService,
    ServeReport,
    verify_against_single_shot,
)
from repro.serve.workload import Workload, mixed_workload
from repro.util.matrices import random_symmetric
from repro.util.validation import reference_spectrum_error

#: where the three passes persist / reload the tuning cache by default
DEFAULT_CACHE_PATH = Path("benchmarks") / "results" / "serve_tuning_cache.json"

#: the serve-bench machine profile: a latency-heavy commodity cluster
#: (α/γ = 3000) chosen so the planner's regime routing is *exercised* —
#: over the pinned size menu the modeled optimum walks from a replicated
#: single-rank solve (n = 8) through 2-, 4- and 8-rank sub-grids up to the
#: dedicated 16-rank grid (n ≥ 96), with δ varying between 1/2 and 2/3.
SERVE_PARAMS = MachineParams(
    gamma=1.0, beta=20.0, nu=2.0, alpha=3000.0, memory_words=float(2**20)
)

#: pinned suite inputs; changing any of these invalidates a baseline
PINNED: dict[str, Any] = {
    "pool": {"machines": 4, "p": 16},
    "workload": {
        "total_jobs": 200,
        "seed": 7,
        "scf_iterations": 6,
        "kpoint_sizes": [24, 32, 32, 48],
        "zipf_mean_gap": 2.0e4,
    },
    "profile": {
        "gamma": 1.0, "beta": 20.0, "nu": 2.0, "alpha": 3000.0,
        "memory_words": float(2**20), "cache_words": None,  # None = inf
    },
    "algorithm": "eig2p5d",
}

#: minimum plan hit rate of the warm pass (the acceptance floor; a correct
#: persistent store achieves 1.0)
HIT_RATE_FLOOR = 0.8

#: per-pass summary fields gated by exact equality (deterministic).  The
#: resilience and SLO sections are gate food too: retry counts
#: and per-class deadline hit rates are pure functions of the seeded
#: workload, so any drift means the resilience layer changed behavior.
EXACT_PASS_FIELDS = (
    "jobs", "ok", "errors", "degraded", "regimes",
    "sim", "sim_totals", "resilience", "slo",
)

#: summary fields that are wall-clock (the only non-deterministic ones)
WALL_SUMMARY_FIELDS = ("wall_s", "jobs_per_s")


def deterministic_summary(summary: dict[str, Any]) -> dict[str, Any]:
    """A ServeReport summary with its wall-clock fields stripped — two
    same-seed runs must agree on this dict *exactly* (the determinism
    acceptance gate)."""
    return {k: v for k, v in summary.items() if k not in WALL_SUMMARY_FIELDS}


def pinned_workload(pinned: dict[str, Any] | None = None) -> Workload:
    cfg = (pinned or PINNED)["workload"]
    return mixed_workload(
        total_jobs=cfg["total_jobs"],
        seed=cfg["seed"],
        scf_iterations=cfg["scf_iterations"],
        kpoint_sizes=cfg["kpoint_sizes"],
        zipf_mean_gap=cfg["zipf_mean_gap"],
    )


def _profile_params(pinned: dict[str, Any]) -> MachineParams:
    prof = dict(pinned["profile"])
    if prof.get("cache_words") is None:
        prof["cache_words"] = float("inf")
    return MachineParams(**prof)


def run_serve_suite(
    cache_path: Path | str | None = None,
    trace_path: Path | str | None = None,
    pinned: dict[str, Any] | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Run the three-pass pinned suite; return the results document.

    Raises :class:`~repro.bench.BenchError` if any job errors on a clean
    machine, or any served spectrum is not byte-identical to its
    single-shot reference.
    """
    pinned = pinned or PINNED
    params = _profile_params(pinned)
    cache_path = Path(cache_path) if cache_path is not None else DEFAULT_CACHE_PATH
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    if cache_path.exists():
        cache_path.unlink()  # the cold pass must actually be cold

    workload = pinned_workload(pinned)
    if trace_path is not None:
        workload.write(trace_path)

    pool_cfg = pinned["pool"]
    doc: dict[str, Any] = {
        "version": 1,
        "pinned": pinned,
        "workload_sizes": {str(k): v for k, v in workload.sizes().items()},
        "passes": {},
    }

    #: pass → dispatch order: "edf" re-serves the warm workload under
    #: earliest-deadline-first dispatch (same plans, same spectra — only
    #: the simulated queue order may differ)
    reports: dict[str, ServeReport] = {}
    for label in ("cold", "warm", "edf"):
        pool = MachinePool(pool_cfg["machines"], pool_cfg["p"], params)
        cache = TuningCache(cache_path)  # warm/edf passes reload the cold store
        service = EigenService(
            pool, cache, algorithm=pinned["algorithm"],
            scheduling="edf" if label == "edf" else "fifo",
        )
        report = service.run_workload(workload)
        reports[label] = report
        doc["passes"][label] = report.summary()
        bad = [r for r in report.results if not r.ok]
        if bad:
            raise BenchError(
                f"{label} pass: {len(bad)} job(s) errored on a clean machine: "
                + "; ".join(f"job {r.job_id}: {r.error_type}: {r.error}" for r in bad[:3])
            )
        log(
            f"{label}: {report.jobs} jobs, {report.jobs_per_s:.1f} jobs/s, "
            f"plan hit rate {report.plan_hit_rate:.1%}, "
            f"sim p50={report.schedule.percentile(50):.3g} "
            f"p99={report.schedule.percentile(99):.3g}, "
            f"util={report.schedule.utilization:.1%}"
        )

    log("verifying byte-identity of every served spectrum vs single-shot runs...")
    mismatches = verify_against_single_shot(reports["cold"].results, params)
    identical = {
        label: all(
            a.ok and b.ok
            and a.eigenvalues is not None and b.eigenvalues is not None
            and np.array_equal(a.eigenvalues, b.eigenvalues)
            for a, b in zip(reports["cold"].results, reports[label].results)
        )
        for label in ("warm", "edf")
    }
    doc["verify"] = {
        "checked": reports["cold"].ok_jobs,
        "mismatches": mismatches,
        "warm_identical": identical["warm"],
        "identical": identical,
    }
    if mismatches:
        raise BenchError(
            "served eigenvalues diverged from single-shot solves:\n  "
            + "\n  ".join(mismatches[:5])
        )
    for label, same in identical.items():
        if not same:
            raise BenchError(f"{label}-pass eigenvalues differ from the cold pass")

    doc["attainment"] = attainment_rollup(
        r.attainment for r in reports["cold"].results
    )
    return doc


# ------------------------------------------------------------------ #
# gate


def check_serve(fresh: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Gate failures of a fresh serve suite vs the baseline ([] = pass).

    Every deterministic field must match exactly and the two documents must
    hold the same passes; wall-clock fields are not read.
    """
    failures: list[str] = []
    if fresh.get("pinned") != baseline.get("pinned"):
        return [
            "pinned suite inputs differ from the baseline — regenerate it with "
            "`repro serve-bench --out BENCH_serve.json`"
        ]
    verify = fresh.get("verify", {})
    if verify.get("mismatches"):
        failures.append(
            f"{len(verify['mismatches'])} served spectrum(s) not byte-identical "
            "to single-shot solves"
        )
    if not verify.get("warm_identical", False):
        failures.append("warm-pass eigenvalues differ from the cold pass")
    for label, same in verify.get("identical", {}).items():
        if label != "warm" and not same:
            failures.append(f"{label}-pass eigenvalues differ from the cold pass")

    fresh_passes = fresh.get("passes", {})
    hit_rate = fresh_passes.get("warm", {}).get("plan_hit_rate", 0.0)
    if hit_rate < HIT_RATE_FLOOR:
        failures.append(
            f"warm-pass plan cache hit rate {hit_rate:.1%} is below the "
            f"{HIT_RATE_FLOOR:.0%} floor"
        )

    return failures + exact_diff(_gated(fresh), _gated(baseline))


def _gated(doc: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a serve document: the exact fields of
    every pass and the per-job attainment roll-up."""
    return {
        "passes": {
            label: {fld: entry[fld] for fld in EXACT_PASS_FIELDS if fld in entry}
            for label, entry in doc.get("passes", {}).items()
        },
        "attainment": doc.get("attainment"),
    }


# ------------------------------------------------------------------ #
# telemetry (PR 10): the observed pass and its gated document


def run_telemetry_suite(
    pinned: dict[str, Any] | None = None,
    capture_solver_spans: bool = True,
    trace_path: Path | str | None = None,
    dash_path: Path | str | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """One telemetry-on pass of the pinned workload → the gated document.

    Runs the pinned workload twice on fresh pools with in-memory tuning
    caches: once unobserved, once with a :class:`~repro.obs.telemetry.
    Telemetry` attached (and solver-span capture threaded into every
    solve).  The two deterministic summaries must agree *exactly* — that
    is the strict-no-op acceptance gate in its strongest form: observing
    the service does not change a single simulated quantity.  The
    telemetry document it returns is itself fully deterministic and is
    gated against ``benchmarks/results/telemetry.json`` the same way the
    simulated sections of ``BENCH_serve.json`` are.

    This pass is deliberately **separate** from the three timed passes of
    :func:`run_serve_suite`: span capture slows the solver's wall clock
    (never its simulated results), so it must not contaminate the recorded
    throughput numbers.
    """
    pinned = pinned or PINNED
    params = _profile_params(pinned)
    pool_cfg = pinned["pool"]
    workload = pinned_workload(pinned)

    def one_pass(telemetry: Telemetry | None) -> tuple[ServeReport, MachinePool]:
        pool = MachinePool(pool_cfg["machines"], pool_cfg["p"], params)
        service = EigenService(
            pool, TuningCache(), algorithm=pinned["algorithm"], telemetry=telemetry,
        )
        return service.run_workload(workload), pool

    unobserved, _ = one_pass(None)
    telemetry = Telemetry(capture_solver_spans=capture_solver_spans)
    observed, pool = one_pass(telemetry)
    if deterministic_summary(observed.summary()) != deterministic_summary(
        unobserved.summary()
    ):
        raise BenchError(
            "telemetry is not a strict no-op: the observed pass's "
            "deterministic summary differs from the unobserved pass"
        )

    doc = build_telemetry_doc(
        telemetry,
        config={
            "pool": dict(pool_cfg),
            "workload": dict(pinned["workload"]),
            "algorithm": pinned["algorithm"],
            "capture_solver_spans": bool(capture_solver_spans),
        },
    )
    if trace_path is not None:
        write_merged_trace(
            telemetry, trace_path, pool=pool,
            label="serve-bench pinned workload",
        )
    if dash_path is not None:
        write_dash(doc, dash_path, title="repro serve-bench flight recorder")
    ev = doc["events"]
    log(
        f"telemetry: {ev['count']} lifecycle events, "
        f"{doc['solver']['span_events']} solver span events across "
        f"{doc['solver']['attempts_with_spans']} attempts; "
        "observed pass byte-identical to unobserved (strict no-op holds)"
    )
    return doc


# ------------------------------------------------------------------ #
# soak: solver- and service-level chaos scenarios, swept over every crash point

DEFAULT_JOURNAL_PATH = Path("benchmarks") / "results" / "serve_journal.jsonl"


def _soak_workload(jobs: int, seed: int):
    return mixed_workload(total_jobs=jobs, seed=seed, scf_iterations=2)


def _silent_wrong(report: ServeReport, tol: float) -> list[dict[str, Any]]:
    """Ok-status jobs whose spectrum misses the numpy reference — the
    never-silently-wrong invariant's violation list (must be empty)."""
    out: list[dict[str, Any]] = []
    for r in report.results:
        if not r.ok:
            continue
        a = random_symmetric(r.n, seed=r.seed)
        err = reference_spectrum_error(a, r.eigenvalues)
        if not err < tol:
            out.append(
                {"job_id": r.job_id, "n": r.n, "error": float(err), "degraded": r.degraded}
            )
    return out


def _spectrum_bytes(report: ServeReport) -> list[bytes | None]:
    return [
        None if r.eigenvalues is None else np.asarray(r.eigenvalues).tobytes()
        for r in report.results
    ]


def _crash_sweep(
    resume: Callable[[Path], ServeReport],
    reference: ServeReport,
    journal_path: Path,
    fingerprint: str,
) -> tuple[int, int, list[dict[str, Any]]]:
    """Resume from every crash state of the reference run's journal.

    Every append is one fsync'd line, so a crash leaves a byte prefix of
    the journal.  Each prefix that ends on a record boundary (offset 0, no
    file, included) is resumed in full on a copy beside the journal and
    must reproduce the reference's deterministic summary, spectrum bytes
    and completed journal bytes.  Each record is also cut mid-record and
    just before its newline; such a torn prefix is only opened, and the
    open must truncate it to the preceding boundary (a torn header to a
    fresh header) — a state the full resumes already cover.

    Returns ``(crash_points, torn_cuts, crash_failures)``, one
    ``{"offset", "check"}`` failure per failing check of a cut.
    """
    data = journal_path.read_bytes()
    bounds = [0, *accumulate(map(len, data.splitlines(keepends=True)))]
    cut_path = journal_path.with_suffix(".cut" + journal_path.suffix)
    summary = deterministic_summary(reference.summary())
    spectra = _spectrum_bytes(reference)
    failures: list[dict[str, Any]] = []

    for cut in bounds:
        cut_path.unlink(missing_ok=True)
        if cut:
            cut_path.write_bytes(data[:cut])
        resumed = resume(cut_path)
        checks = {
            "summary": deterministic_summary(resumed.summary()) == summary,
            "spectra": _spectrum_bytes(resumed) == spectra,
            "journal": cut_path.read_bytes() == data,
        }
        failures += [{"offset": cut, "check": c} for c, ok in checks.items() if not ok]

    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        kept = data[: bounds[max(i, 1)]]  # a torn header is written afresh
        for cut in (start + (end - start) // 2, end - 1):
            cut_path.write_bytes(data[:cut])
            try:
                with JobJournal(cut_path) as journal:
                    journal.open(fingerprint, reference.jobs)
            except JournalError as exc:
                failures.append({"offset": cut, "check": f"open: {exc}"})
                continue
            if cut_path.read_bytes() != kept:
                failures.append({"offset": cut, "check": "truncate"})
    cut_path.unlink()
    return len(bounds), 2 * (len(bounds) - 1), failures


def run_soak(
    jobs: int = 48,
    seed: int = 11,
    scenario: str = "chaos",
    tol: float = 1e-6,
    journal_path: Path | str = DEFAULT_JOURNAL_PATH,
    dash_path: Path | str | None = None,
    log: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Serve a workload under a chaos scenario and check the invariants.

    ``scenario`` is a solver-level fault scenario (``chaos``,
    ``rank-failure``, ...: every solve's machine injects faults), a
    service-level scenario (``flaky-machine``, ``straggler``,
    ``poison-job``: the resilient loop's chaos hooks).  Three invariants
    gate:

    * **never silently wrong** — every ok-status spectrum matches the
      numpy reference within ``tol``;
    * **no job lost** — every submitted job owns a journal terminal
      record with a disposition in ``ok | degraded | error``;
    * **deterministic at every crash point** — a resume from every prefix
      of the run's journal reproduces the run exactly
      (:func:`_crash_sweep`; ``crash_failures == []``).
    """
    if scenario not in SERVICE_SCENARIOS:
        from repro.faults.plan import SCENARIOS

        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown soak scenario {scenario!r}; choose a solver scenario "
                f"{sorted(SCENARIOS)} or a service scenario "
                f"{sorted(SERVICE_SCENARIOS)}"
            )

    journal_path = Path(journal_path)
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    if journal_path.exists():
        journal_path.unlink()  # each soak run journals from scratch

    workload = _soak_workload(jobs, seed)
    # a service-level scenario configures the resilient loop's chaos hooks;
    # a solver-level one is installed on every solve's machine
    service_level = scenario in SERVICE_SCENARIOS

    def serve(journal: Path, telemetry: Telemetry | None = None) -> ServeReport:
        """One run on a fresh pinned 2×16 pool."""
        return EigenService(
            MachinePool(2, 16, SERVE_PARAMS), TuningCache(),
            scenario=scenario if service_level else None,
            faults=None if service_level else scenario,
            journal=journal, telemetry=telemetry,
        ).run_workload(workload)

    # the flight recorder rides the reference run; telemetry is a strict
    # no-op so the resumes still reproduce it (solver-span capture stays
    # off to keep soak wall cheap)
    telemetry = (
        Telemetry(capture_solver_spans=False) if dash_path is not None else None
    )
    report = serve(journal_path, telemetry)
    silent_wrong = _silent_wrong(report, tol)
    jsum = read_journal(journal_path)
    crash_points, torn_cuts, crash_failures = _crash_sweep(
        serve, report, journal_path, jsum["fingerprint"]
    )
    doc = {
        "version": 3,
        "scenario": scenario,
        "tol": tol,
        "jobs": report.jobs,
        "ok": report.ok_jobs,
        "typed_errors": report.error_jobs,
        "degraded": sum(r.degraded for r in report.results),
        "error_types": sorted(
            {r.error_type for r in report.results if not r.ok}
        ),
        "silent_wrong": silent_wrong,
        "dispositions": report.schedule.dispositions(),
        "resilience": report.resilience,
        "slo": report.slo,
        "health": report.health,
        "journal": jsum,
        "no_job_lost": (
            jsum["submitted"] == report.jobs and not jsum["missing_terminals"]
        ),
        "crash_points": crash_points,
        "torn_cuts": torn_cuts,
        "crash_failures": crash_failures,
        "deterministic": not crash_failures,
    }
    if telemetry is not None:
        tdoc = build_telemetry_doc(
            telemetry,
            config={"scenario": scenario, "jobs": jobs, "seed": seed},
        )
        write_dash(tdoc, dash_path, title=f"repro soak flight recorder — {scenario}")
        doc["dash"] = {
            "path": str(dash_path),
            "events": tdoc["events"]["count"],
            "event_digest": tdoc["events"]["digest"],
        }
    log(
        f"soak[{scenario}]: {doc['ok']}/{doc['jobs']} ok "
        f"({doc['degraded']} degraded), "
        f"{doc['typed_errors']} typed errors, {len(silent_wrong)} silently wrong; "
        f"no job lost: {doc['no_job_lost']}; crash sweep: {crash_points} "
        f"boundaries resumed, {torn_cuts} torn cuts, "
        f"{len(crash_failures)} failing"
    )
    return doc


# ------------------------------------------------------------------ #
# console rendering


def render_serve(doc: dict[str, Any]) -> str:
    from repro.report.tables import format_table

    rows = []
    for label, entry in doc.get("passes", {}).items():
        sim = entry.get("sim", {})
        rows.append(
            [
                label,
                entry.get("jobs", 0),
                f"{entry.get('jobs_per_s', 0.0):.1f}",
                f"{entry.get('plan_hit_rate', 0.0):.1%}",
                f"{sim.get('latency_p50', 0.0):.4g}",
                f"{sim.get('latency_p99', 0.0):.4g}",
                f"{sim.get('utilization', 0.0):.1%}",
                " ".join(f"{k}:{v}" for k, v in entry.get("regimes", {}).items()),
            ]
        )
    table = format_table(
        ["pass", "jobs", "jobs/s", "plan hits", "sim p50", "sim p99", "util", "regimes"],
        rows,
        title="eigensolver service benchmark (latency in simulated BSP time)",
    )
    verify = doc.get("verify", {})
    tail = (
        f"\nbyte-identity: {verify.get('checked', 0)} spectra verified against "
        f"single-shot solves, {len(verify.get('mismatches', []))} mismatches; "
        f"warm pass identical: {verify.get('warm_identical')}"
    )
    return table + tail
