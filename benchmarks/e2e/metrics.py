"""The benchmark's metric registry — the single source of ``BENCHMARK.json``.

Every number names its clock: **host** (seconds the simulator costs its
user; noisy, bounded) or **sim** (counts/time the modelled BSP machine
pays; deterministic, compared exactly).  ``python3 benchmarks/e2e/metrics.py``
prints ``BENCHMARK.json``; the self-test asserts the committed file matches.

``BENCHMARK.json`` admits only name/unit/better(/bound) per metric, so the
clock, the meaning and — for layer metrics — the end-to-end metric and
workload each one is predicted to move (``moves``) live here and are
rendered into the README's glossary and interaction table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 15

#: bound used for sim metrics: they repeat exactly, so any real worsening
#: (one superstep in 339 is 3e-3) exceeds it; kept above zero only so that
#: a strict "<" comparison in a driver still accepts identical values
EXACT = 1e-9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    clock: str             # "host" | "sim" | "-"
    what: str
    bound: float | None = None   # end-to-end metrics only
    moves: str = ""              # layer metrics: predicted e2e effect

    @property
    def exact(self) -> bool:
        return self.bound is not None and self.bound <= EXACT


WORKLOADS: dict[str, str] = {
    "chase_large": (
        "n=512 on p=256 at delta=2/3 (c=4): bulge-chase regime, per-call Householder QR + "
        "chase steps dominate host time; the instance ROADMAP item 2 wants 2x on"
    ),
    "finish_wide": (
        "n=384 on p=16 at delta=1/2 (c=1), clustered spectrum: wide band at gather, so the "
        "sequential band->tridiagonal Givens sweep dominates; mirror image of chase_large"
    ),
    "serve_stream": (
        "200-job very-small-matrix stream (half n=8, >=85% at p<=2) through EigenService "
        "with a warm tuning cache: Sturm bisection and per-instance overhead dominate"
    ),
    "serve_durable": (
        "120 jobs under the flaky-machine scenario with an fsync'd journal and telemetry: "
        "retries/hedges, WAL appends and span-capturing solves (the per-step chase path)"
    ),
    "chase_observed": (
        "n=256 on p=64 with spans+metrics on: observation forces the slower per-step path "
        "and live hook families; batched-path optimisations bypass it (predict no change)"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "process start to first timed op: imports, input generation, cold planning "
           "pass, one warm-up op; median of the three legs' cold set-ups",
           bound=0.25),
    Metric("op_wall_s", "s", "lower", "host",
           "median host seconds per op — one eigensolve (the observed one on "
           "chase_observed) or one served job (pass wall / jobs; jobs/s is its inverse)",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of a leg when its timed loop ends; median of the legs", bound=0.15),
    Metric("sim_time", "simunits", "lower", "sim",
           "BSP time gamma*F+beta*W+nu*Q+alpha*S charged: the solve's CostReport, or on "
           "serve workloads every attempt incl. retry/hedge waste (resilience.charged)",
           bound=EXACT),
    Metric("sim_words", "words", "lower", "sim",
           "horizontal words W: max per rank for a solve (the paper's headline), "
           "summed over all charged attempts on serve workloads", bound=EXACT),
    Metric("sim_supersteps", "count", "lower", "sim",
           "supersteps S, same scope as sim_words", bound=EXACT),
    Metric("sim_latency_p50", "simunits", "lower", "sim",
           "median simulated job latency (schedule.percentile(50)); a lone solve's "
           "latency is its sim_time", bound=EXACT),
    Metric("sim_latency_p90", "simunits", "lower", "sim",
           "p90 simulated latency: the highest percentile with >= 10 jobs beyond it "
           "(12 of 120, 20 of 200)", bound=EXACT),
    Metric("slo_hit_rate", "share", "higher", "sim",
           "interactive jobs meeting their deadline / interactive jobs (error and shed "
           "count as misses); 1 on solve workloads, which carry no deadline",
           bound=EXACT),
)

_E2E_CHASE = "op_wall_s · chase_large"
STAGES = ("full_to_band", "band_to_band", "ca_sbr", "finish")


def _pair(prefix: str, what: str, moves: str) -> list[Metric]:
    return [
        Metric(f"{prefix}.calls", "count", "lower", "host",
               f"calls into {what} per timed call", moves=moves),
        Metric(f"{prefix}.self_s", "s", "lower", "host",
               f"self time of {what} per timed call", moves=moves),
    ]


def _per_layer() -> tuple[Metric, ...]:
    chase = f"{_E2E_CHASE} (<= 58 % together); not finish_wide/serve_stream (< 8 %)"
    blocks = ("op_wall_s · serve_stream (~9 %), chase_large (~11 %); "
              "not finish_wide (~1 %)")
    bsp = ("op_wall_s · chase_large (~10 %), chase_observed; "
           "not finish_wide (~1 %), serve (<= 6 %)")
    observers = ("op_wall_s · chase_observed and serve_durable, observe.overhead_x; "
                 "no unobserved workload")
    control = ("op_wall_s · serve_durable (journal ~5 %, loop ~1 %); "
               "not serve_stream (< 1 %)")
    setup = "setup_s · serve workloads; not op_wall_s (cache is warm)"
    hedge = "sim_time, sim_latency_p90 · serve workloads; no solve workload"
    out: list[Metric] = []
    out += _pair("linalg.householder", "compact_wy_qr[_general]", chase)
    out += _pair("linalg.chase_step", "apply_chase_step", chase)
    out += _pair("linalg.sturm", "sturm_bisection_eigenvalues",
                 "op_wall_s · serve_stream (<= 53 %), serve_durable (<= 39 %); "
                 "not chase_large/finish_wide (~9 %)")
    out += _pair("linalg.band_tridiag", "band_to_tridiagonal_storage",
                 "op_wall_s · finish_wide (<= 80 %), serve_stream (<= 17 %); "
                 "not chase_large (~4 %)")
    for name, what in (("carma", "carma_matmul"), ("streaming", "streaming_matmul"),
                       ("rect_qr", "rect_qr"), ("tsqr", "tsqr/tsqr_thin"),
                       ("square_qr", "square_qr/square_qr_25d")):
        out += _pair(f"blocks.{name}", what, blocks)
    out += _pair("bsp.charge", "BSPMachine.charge_*/mem_*/superstep/note_memory/cost", bsp)
    out += _pair("bsp.batch", "ChargeLog/KernelTape/FlatTape methods", bsp)
    out.append(Metric("bsp.charging_p512_s", "s", "lower", "host",
                      "wall of repro.bench.charging_workload(BSPMachine(512), 100): "
                      "pure accounting, no numerics", moves=bsp))
    out += _pair("dist.band", "DistBandMatrix.redistribute/gather",
                 "op_wall_s · chase_large (< 1 %)")
    for st in STAGES:
        sim = ("sim_words, sim_time · chase_large (full_to_band is 49 % of W), finish_wide; "
               "a host-only change leaves every sim metric bit-identical")
        host = f"op_wall_s · the workload whose regime is {st}"
        out += [
            Metric(f"eig.{st}.wall_s", "s", "lower", "host",
                   f"inclusive wall of the {st} stage per timed call", moves=host),
            Metric(f"eig.{st}.self_s", "s", "lower", "host",
                   f"self time of the {st} stage function per timed call", moves=host),
            Metric(f"eig.{st}.sim_words", "words", "lower", "sim",
                   f"W charged in {st} (summed over jobs on serve workloads)", moves=sim),
            Metric(f"eig.{st}.sim_supersteps", "count", "lower", "sim",
                   f"S charged in {st}", moves=sim),
            Metric(f"eig.{st}.attain_words_x", "x", "lower", "sim",
                   f"measured / lemma W of {st} (repro.metrics.attainment)", moves=sim),
            Metric(f"eig.{st}.attain_supersteps_x", "x", "lower", "sim",
                   f"measured / lemma S of {st}", moves=sim),
        ]
    out += [
        Metric("eig.driver.self_s", "s", "lower", "host",
               "self time of eigensolve_2p5d per timed call", moves="op_wall_s · all (< 1 %)"),
        Metric("eig.w_ratio_2d", "x", "lower", "sim",
               "chase_large only: sim_words at delta=2/3 / at delta=1/2, same A and p "
               "(paper: 1/sqrt(c) = 0.5); 0 elsewhere", moves="sim_words · chase_large"),
    ]
    out += _pair("serve.planner", "plan_job", setup)
    out += [
        Metric("serve.planner.hit_rate", "share", "higher", "sim",
               "plan cache hits / jobs of a pass", moves=setup),
        Metric("serve.planner.cold_plan_s", "s", "lower", "host",
               "planning the workload's size menu against an empty TuningCache", moves=setup),
        Metric("serve.cache_load_s", "s", "lower", "host",
               "TuningCache(path) load of the persisted store", moves=setup),
        Metric("serve.execute.self_s", "s", "lower", "host",
               "execute_payload minus the solve, per pass", moves=control),
        Metric("serve.resilience.self_s", "s", "lower", "host",
               "run_resilient minus solves, per pass", moves=control),
    ]
    out += _pair("serve.journal", "JobJournal methods", control)
    out += [
        Metric("serve.journal.bytes", "bytes", "lower", "sim",
               "size of the complete journal of one pass", moves=control),
        Metric("serve.resume_s", "s", "lower", "host",
               "second run_workload over the complete journal: control plane only",
               moves=control),
        Metric("serve.solves", "count", "lower", "sim",
               "execute_payload calls per pass", moves="op_wall_s · serve workloads"),
        Metric("serve.trials", "count", "lower", "sim",
               "simulated attempts per pass (resilience.trials)", moves=hedge),
        Metric("serve.memo_hit_rate", "share", "higher", "sim",
               "1 - solves / trials", moves="op_wall_s · serve workloads"),
        Metric("serve.retries", "count", "lower", "sim", "retries per pass", moves=hedge),
        Metric("serve.hedges", "count", "lower", "sim", "hedges per pass", moves=hedge),
        Metric("serve.hedge_win_rate", "share", "higher", "sim",
               "hedge wins / hedges: useful outcomes per speculative attempt", moves=hedge),
        Metric("serve.degraded_share", "share", "lower", "sim",
               "jobs settled on a grid-shrink or replicated rung / jobs", moves=hedge),
    ]
    out += _pair("obs.telemetry", "Telemetry methods", observers)
    out += _pair("trace.spans", "SpanRecorder methods", observers)
    out += _pair("metrics.collector", "MetricsCollector methods", observers)
    out += [
        Metric("util.matrices.self_s", "s", "lower", "host",
               "repro.util.matrices generators per timed call",
               moves="op_wall_s · serve workloads (< 2 %)"),
        Metric("util.validation.self_s", "s", "lower", "host",
               "repro.util.validation checks per timed call", moves="op_wall_s · all (< 1 %)"),
        Metric("observe.overhead_x", "x", "lower", "host",
               "chase_observed only: median over untraced pairs of observed / plain wall "
               "(ROADMAP item 3 targets <= 1.2); 0 elsewhere",
               moves="op_wall_s · chase_observed"),
        Metric("observe.plain_wall_s", "s", "lower", "host",
               "chase_observed only: median plain solve of the pair; 0 elsewhere",
               moves="none (the unobserved base of observe.overhead_x)"),
        Metric("spectrum_err", "n-eps-norm", "lower", "-",
               "max |lambda - lambda_LAPACK| over ops in multiples of n*eps*||A||_2; "
               "hard check <= 1", moves="none (accuracy guard)"),
        Metric("host.calib_s", "s", "lower", "host",
               "a fixed numpy/Python kernel: shows host drift, never used to rescale",
               moves="none (informational)"),
        Metric("trace.overhead_x", "x", "lower", "host",
               "traced / untraced median wall of the timed call", moves="none (harness)"),
        Metric("trace.coverage", "share", "higher", "host",
               "share of traced wall inside wrapped callables", moves="none (harness)"),
        Metric("trace.spans_recorded", "count", "lower", "host",
               "spans recorded per timed call", moves="none (harness)"),
    ]
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()
E2E_BY_NAME = {m.name: m for m in END_TO_END}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
