"""Wall-clock benchmark harness for the accounting engine (``repro bench``).

The repo's other benchmarks measure *simulated* BSP cost; this one measures
the **simulator itself** — how fast the accounting engine charges costs —
because simulator wall-clock, not numpy, is what caps the (n, p) any
experiment can reach.

``repro bench`` runs a pinned micro-suite on both accounting engines:

* ``charging_p512`` — machine-level charging throughput: a fixed loop of
  group charges, batched charges, collectives, streaming traffic and
  memory notes on a p=512 machine (no numerics — pure accounting);
* ``eig_n96_p16`` — one full-pipeline :func:`repro.eig.eigensolve_2p5d`
  run at pinned (n, p, δ, seed);
* ``eig_n512_p256`` — the same full pipeline at large pinned (n, p): the
  instance class the deferred charge log exists for, so its wall gate is
  the regression tripwire for every per-step Python loop on the hot path;
* ``scaling_exponents`` — a small pinned (n, p, δ) grid of band-to-band
  runs with the paper's band-width scaling b ≈ n/p^δ; the measured W and S
  are log-log–regressed against Lemma IV.3's closed forms and the fitted
  exponents gated (see :func:`fit_loglog_slope`).

Every case runs on the vectorized ``array`` engine (timed, median of
``--repeats``) and on the pre-vectorization ``scalar`` oracle; their
:class:`~repro.bsp.counters.CostReport`\\ s must be **bit-identical** (per
rank, not just in aggregate) or the run fails.  Results go to
``benchmarks/results/BENCH_engine.json``:

``wall_s``               median wall-clock of the vectorized engine
``scalar_wall_s``        median wall-clock of the scalar oracle
``speedup_vs_scalar``    scalar / array wall ratio
``rank_charges``         per-rank counter updates performed by the case
``rank_charges_per_s``   throughput of the vectorized engine
``cost``                 simulated F / W / Q / S / M (+ totals)

``repro bench --check BENCH_engine.json`` re-runs the suite and fails on

* any simulated-cost drift versus the committed baseline (exact float
  equality — the cost model is deterministic, so any drift is a real
  accounting change that must be recommitted deliberately);
* a >25% wall-clock regression, after rescaling the committed wall numbers
  by the scalar oracle's wall ratio on this host (the oracle acts as the
  hardware calibrator, so the gate is portable across machines); the
  envelope is overridable with ``REPRO_BENCH_ENVELOPE``, and a run whose
  *only* failures are wall regressions is re-timed up to
  ``REPRO_BENCH_RETRIES`` times (best-of-k) before failing, so a loaded CI
  host doesn't flake the gate — cost drift and speedup-floor violations
  are never retried;
* charging-suite speedup below the 3× floor the vectorized engine must
  maintain over the scalar oracle at p ≥ 256.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bsp import BSPMachine, collectives
from repro.bsp.counters import CostReport, CounterArray

#: default location of the fresh results JSON (relative to the cwd)
DEFAULT_RESULT_PATH = Path("benchmarks") / "results" / "BENCH_engine.json"

#: committed baseline filename at the repo root
BASELINE_NAME = "BENCH_engine.json"

#: pinned micro-suite inputs; changing any of these invalidates a baseline
PINNED: dict[str, dict[str, Any]] = {
    "charging": {"p": 512, "iters": 100},
    "eig": {"n": 96, "p": 16, "delta": 2.0 / 3.0, "seed": 3},
    "eig_large": {"n": 512, "p": 256, "delta": 2.0 / 3.0, "seed": 3},
    # Band-to-band runs with b ≈ n/p^δ (the paper's choice); lists, not
    # tuples, so the pinned block round-trips through JSON unchanged.
    "scaling": {
        "k": 2,
        "seed": 3,
        "grid": [
            [128, 16, 2.0 / 3.0],
            [192, 16, 2.0 / 3.0],
            [256, 32, 2.0 / 3.0],
            [384, 32, 2.0 / 3.0],
            [256, 64, 0.75],
            [384, 64, 0.75],
        ],
    },
}

#: >25% wall regression fails --check (env-overridable for noisy hosts)
WALL_TOLERANCE = float(os.environ.get("REPRO_BENCH_ENVELOPE") or "1.25")

#: wall-only gate failures are re-timed this many times before failing
WALL_RETRIES = int(os.environ.get("REPRO_BENCH_RETRIES", "2"))

#: minimum charging-suite speedup of array over scalar engine (p >= 256)
SPEEDUP_FLOOR = 3.0

#: two-sided tolerance on the fitted W exponent: Lemma IV.3's bandwidth
#: bound is *attained* by the 2.5D schedule, so measured W must track the
#: closed form with unit slope
W_EXPONENT_TOL = 0.1

#: one-sided slack on the fitted S exponent: the lemma's synchronization
#: bound is an upper bound, and the simulator's per-rank superstep maxima
#: do not count pipeline idling, so the measured exponent may sit *below*
#: unity — it just must never exceed the bound's closed form by more than
#: this slack
S_EXPONENT_SLACK = 0.1

#: absolute slack on the wall gate — sub-millisecond walls are dominated by
#: timer granularity and scheduler noise, not engine performance
WALL_ABS_SLACK_S = 0.005

#: cost fields pinned by the baseline (aggregate; per-rank identity is
#: asserted separately against the live scalar oracle on every run)
COST_FIELDS = (
    "flops",
    "words",
    "mem_traffic",
    "supersteps",
    "peak_memory_words",
    "total_flops",
    "total_words",
    "total_mem_traffic",
)

_PER_RANK_FIELDS = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
    "peak_memory_words",
)


# ------------------------------------------------------------------ #
# report comparison

def per_rank_arrays(report: CostReport) -> dict[str, np.ndarray]:
    """Per-rank counter arrays of a report, whichever engine produced it."""
    pr = report.per_rank
    if isinstance(pr, CounterArray):
        return {name: pr.field_array(name) for name in _PER_RANK_FIELDS}
    return {
        name: np.array([getattr(c, name) for c in pr], dtype=np.float64)
        for name in _PER_RANK_FIELDS
    }


def report_mismatches(a: CostReport, b: CostReport) -> list[str]:
    """Ways two cost reports differ, bit-for-bit ([] means identical)."""
    issues: list[str] = []
    if a.p != b.p:
        return [f"p differs: {a.p} != {b.p}"]
    for name in COST_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            issues.append(f"{name} differs: {va!r} != {vb!r}")
    pa, pb = per_rank_arrays(a), per_rank_arrays(b)
    for name in _PER_RANK_FIELDS:
        if not np.array_equal(pa[name], pb[name]):
            bad = int(np.argmax(pa[name] != pb[name]))
            issues.append(
                f"per-rank {name} differs first at rank {bad}: "
                f"{pa[name][bad]!r} != {pb[name][bad]!r}"
            )
    return issues


def cost_dict(report: CostReport) -> dict[str, float]:
    """JSON-serializable aggregate cost of a report."""
    out = {name: getattr(report, name) for name in COST_FIELDS}
    out["p"] = report.p
    return out


# ------------------------------------------------------------------ #
# the micro-suite

def charging_workload(machine: BSPMachine, iters: int) -> CostReport:
    """Machine-level charging loop: group, batched, and collective charges.

    Touches every vectorized entry point — uniform and weighted flop
    charges, uniform and matrix-valued comm charges, collectives over the
    world and subgroups, streamed traffic, memory notes, supersteps — with
    zero numpy numerics, so wall-clock is pure accounting overhead.
    """
    world = machine.world
    p = machine.p
    quads = world.split(4)
    weights = np.linspace(1.0, 2.0, p)
    g = quads[0].size
    transfer = np.fromfunction(lambda i, j: (i + j + 1.0) % 7.0, (g, g))
    for _ in range(iters):
        machine.charge_flops(world, 10.0)
        machine.charge_flops_batch(world, weights)
        machine.charge_comm_batch(world, 4.0, 4.0)
        collectives.allreduce(machine, world, 64.0)
        for grp in quads:
            collectives.bcast(machine, grp, 32.0)
            machine.charge_flops(grp, 5.0)
        machine.charge_comm_matrix(quads[0], transfer)
        machine.mem_stream_group(world, 2.0)
        machine.note_memory(world, 100.0)
        machine.superstep(world)
    return machine.cost()


def _charging_rank_charges(p: int, iters: int) -> int:
    """Per-rank counter updates performed by :func:`charging_workload`.

    Per iteration: flops p + flops_batch p + comm 2p + allreduce 4p +
    4×bcast 3(p/4)·4 + 4×flops (p/4)·4 + comm_matrix 2(p/4) +
    stream p + note p + superstep p = 15.5p.
    """
    return int(iters * 15.5 * p)


def run_charging(engine: str) -> tuple[CostReport, float]:
    cfg = PINNED["charging"]
    machine = BSPMachine(cfg["p"], engine=engine)
    t0 = time.perf_counter()
    report = charging_workload(machine, cfg["iters"])
    wall = time.perf_counter() - t0
    return report, wall


def run_eig(engine: str, cfg_key: str = "eig") -> tuple[CostReport, float]:
    from repro.eig import eigensolve_2p5d
    from repro.util.matrices import random_symmetric

    cfg = PINNED[cfg_key]
    a = random_symmetric(cfg["n"], seed=cfg["seed"])
    machine = BSPMachine(cfg["p"], engine=engine)
    t0 = time.perf_counter()
    eigensolve_2p5d(machine, a, delta=cfg["delta"])
    wall = time.perf_counter() - t0
    return machine.cost(), wall


def run_eig_large(engine: str) -> tuple[CostReport, float]:
    return run_eig(engine, "eig_large")


CASES: dict[str, Callable[[str], tuple[CostReport, float]]] = {
    "charging_p512": run_charging,
    "eig_n96_p16": run_eig,
    "eig_n512_p256": run_eig_large,
}

#: pinned-config key backing each case; the pinned block is the source of
#: truth — a case runs iff its inputs are pinned, so tests (and ad-hoc
#: profiling) shrink the suite by monkeypatching ``PINNED``
CASE_PINNED_KEY = {
    "charging_p512": "charging",
    "eig_n96_p16": "eig",
    "eig_n512_p256": "eig_large",
}


# ------------------------------------------------------------------ #
# the scaling-exponent suite (Lemma IV.3)


def scaling_bandwidth(n: int, p: int, delta: float) -> int:
    """The paper's band-width scaling b ≈ n/p^δ, rounded to an even b ≥ 4
    (band-to-band needs k = 2 to divide b)."""
    return max(4, 2 * round(n / p**delta / 2.0))


def lemma_iv3_closed_forms(n: int, p: int, b: int, k: int, delta: float) -> tuple[float, float]:
    """Lemma IV.3's closed-form bandwidth and synchronization bounds,
    dropping constants: W = n^{1+δ}·b^{1−δ}/p^δ and
    S = k^δ·n^{1−δ}·p^δ/b^{1−δ}·log₂p."""
    w = float(n ** (1.0 + delta) * b ** (1.0 - delta) / p**delta)
    s = float(k**delta * n ** (1.0 - delta) * p**delta / b ** (1.0 - delta) * np.log2(p))
    return w, s


def fit_loglog_slope(closed: list[float], measured: list[float]) -> float:
    """Least-squares slope of log(measured) against log(closed form).

    A slope of 1 means the measured cost scales exactly as the lemma's
    closed form across the grid (constants cancel in the regression).
    """
    x = np.log(np.asarray(closed, dtype=np.float64))
    y = np.log(np.asarray(measured, dtype=np.float64))
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))  # cost: free(host-side regression over O(grid) scalars, not simulated work)


def run_scaling_point(engine: str, n: int, p: int, delta: float) -> tuple[CostReport, float]:
    """One band-to-band reduction at (n, p, δ) with b = scaling_bandwidth."""
    from repro.dist.banded import DistBandMatrix
    from repro.eig.band_to_band import band_to_band_2p5d
    from repro.util.matrices import random_banded_symmetric

    cfg = PINNED["scaling"]
    b = scaling_bandwidth(n, p, delta)
    a = random_banded_symmetric(n, b, seed=cfg["seed"])
    machine = BSPMachine(p, engine=engine)
    t0 = time.perf_counter()
    band = DistBandMatrix(machine, a, b, machine.world)
    band_to_band_2p5d(machine, band, k=cfg["k"])
    wall = time.perf_counter() - t0
    return machine.cost(), wall


def run_scaling_case(repeats: int) -> dict[str, Any]:
    """Run the pinned scaling grid on both engines; fit and gate exponents.

    Each grid point's vectorized report must be bit-identical to the scalar
    oracle's; the fitted W exponent must be 1 ± ``W_EXPONENT_TOL`` and the
    fitted S exponent at most 1 + ``S_EXPONENT_SLACK``.  The fitted slopes
    and per-point measurements land in the entry's ``cost`` dict, so the
    baseline check pins them by exact equality like every other cost.
    """
    cfg = PINNED["scaling"]
    array_walls = [0.0] * repeats
    scalar_walls = [0.0] * repeats
    w_meas: list[float] = []
    s_meas: list[int] = []
    w_closed: list[float] = []
    s_closed: list[float] = []
    grid_doc: list[dict[str, Any]] = []
    for n, p, delta in cfg["grid"]:
        array_report = scalar_report = None
        for r in range(repeats):
            array_report, wall = run_scaling_point("array", n, p, delta)
            array_walls[r] += wall
            scalar_report, wall = run_scaling_point("scalar", n, p, delta)
            scalar_walls[r] += wall
        assert array_report is not None and scalar_report is not None
        mismatches = report_mismatches(array_report, scalar_report)
        if mismatches:
            raise BenchError(
                f"scaling_exponents (n={n}, p={p}, delta={delta:g}): vectorized "
                "engine drifted from the scalar oracle:\n  " + "\n  ".join(mismatches)
            )
        b = scaling_bandwidth(n, p, delta)
        wc, sc = lemma_iv3_closed_forms(n, p, b, cfg["k"], delta)
        w_meas.append(float(array_report.words))
        s_meas.append(int(array_report.supersteps))
        w_closed.append(wc)
        s_closed.append(sc)
        grid_doc.append({"n": n, "p": p, "delta": delta, "b": b})
    w_exp = fit_loglog_slope(w_closed, w_meas)
    s_exp = fit_loglog_slope(s_closed, [float(s) for s in s_meas])
    if abs(w_exp - 1.0) > W_EXPONENT_TOL:
        raise BenchError(
            f"scaling_exponents: fitted W exponent {w_exp:.4f} is outside "
            f"1 +/- {W_EXPONENT_TOL} — measured bandwidth no longer scales as "
            "Lemma IV.3's closed form"
        )
    if s_exp > 1.0 + S_EXPONENT_SLACK:
        raise BenchError(
            f"scaling_exponents: fitted S exponent {s_exp:.4f} exceeds "
            f"1 + {S_EXPONENT_SLACK} — measured synchronization grows faster "
            "than Lemma IV.3's bound"
        )
    wall = statistics.median(array_walls)
    scalar_wall = statistics.median(scalar_walls)
    return {
        "wall_s": wall,
        "wall_s_runs": array_walls,
        "scalar_wall_s": scalar_wall,
        "speedup_vs_scalar": scalar_wall / wall if wall > 0 else float("inf"),
        "grid": grid_doc,
        "cost": {
            "W_exponent": w_exp,
            "S_exponent": s_exp,
            "W_measured": w_meas,
            "S_measured": s_meas,
        },
    }


# ------------------------------------------------------------------ #
# suite driver

class BenchError(RuntimeError):
    """The benchmark suite failed (oracle mismatch or gate violation)."""


def run_suite(repeats: int = 3, log: Callable[[str], None] = print) -> dict[str, Any]:
    """Run every case on both engines; return the results document.

    Raises :class:`BenchError` if any case's vectorized report is not
    bit-identical to the scalar oracle's.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results: dict[str, Any] = {"version": 1, "pinned": PINNED, "cases": {}}
    for name, case in CASES.items():
        if CASE_PINNED_KEY[name] not in PINNED:
            continue
        array_walls: list[float] = []
        scalar_walls: list[float] = []
        array_report = scalar_report = None
        for _ in range(repeats):
            array_report, wall = case("array")
            array_walls.append(wall)
            scalar_report, wall = case("scalar")
            scalar_walls.append(wall)
        assert array_report is not None and scalar_report is not None
        mismatches = report_mismatches(array_report, scalar_report)
        if mismatches:
            raise BenchError(
                f"{name}: vectorized engine drifted from the scalar oracle:\n  "
                + "\n  ".join(mismatches)
            )
        wall = statistics.median(array_walls)
        scalar_wall = statistics.median(scalar_walls)
        entry: dict[str, Any] = {
            "wall_s": wall,
            "wall_s_runs": array_walls,
            "scalar_wall_s": scalar_wall,
            "speedup_vs_scalar": scalar_wall / wall if wall > 0 else float("inf"),
            "cost": cost_dict(array_report),
        }
        if name == "charging_p512":
            cfg = PINNED["charging"]
            entry["rank_charges"] = _charging_rank_charges(cfg["p"], cfg["iters"])
            entry["rank_charges_per_s"] = entry["rank_charges"] / wall if wall > 0 else float("inf")
        results["cases"][name] = entry
        log(
            f"{name}: wall={wall:.4f}s scalar={scalar_wall:.4f}s "
            f"speedup={entry['speedup_vs_scalar']:.1f}x  oracle=identical"
        )
    if "scaling" in PINNED:
        entry = run_scaling_case(repeats)
        results["cases"]["scaling_exponents"] = entry
        log(
            f"scaling_exponents: wall={entry['wall_s']:.4f}s "
            f"scalar={entry['scalar_wall_s']:.4f}s "
            f"W_exp={entry['cost']['W_exponent']:.4f} "
            f"S_exp={entry['cost']['S_exponent']:.4f}  oracle=identical"
        )
    return results


def check_against_baseline(
    fresh: dict[str, Any], baseline: dict[str, Any], wall_tolerance: float = WALL_TOLERANCE
) -> list[str]:
    """Gate failures of a fresh run versus the committed baseline ([] = pass).

    Simulated costs must match exactly.  Wall-clock is compared after
    rescaling the baseline by the scalar oracle's wall ratio on this host,
    so the gate measures engine regressions, not hardware differences.
    """
    failures: list[str] = []
    if fresh.get("pinned") != baseline.get("pinned"):
        failures.append(
            "pinned suite inputs differ from the baseline — regenerate it with "
            "`repro bench --out BENCH_engine.json`"
        )
        return failures
    for name, entry in fresh["cases"].items():
        base = baseline.get("cases", {}).get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        for field, value in entry["cost"].items():
            base_value = base["cost"].get(field)
            if base_value != value:
                failures.append(
                    f"{name}: simulated-cost drift in {field}: "
                    f"baseline {base_value!r} != fresh {value!r}"
                )
        scale = (
            entry["scalar_wall_s"] / base["scalar_wall_s"] if base.get("scalar_wall_s") else 1.0
        )
        budget = wall_tolerance * base["wall_s"] * scale + WALL_ABS_SLACK_S
        if entry["wall_s"] > budget:
            failures.append(
                f"{name}: wall-clock regression: {entry['wall_s']:.4f}s exceeds "
                f"{budget:.4f}s (= {wall_tolerance:.2f} x baseline {base['wall_s']:.4f}s "
                f"x host-scale {scale:.2f})"
            )
        # The speedup floor is a claim about large machines (vectorization
        # amortizes over p); only enforce it at the pinned p >= 256.
        charging_p = fresh["pinned"].get("charging", {}).get("p", 0)
        if name == "charging_p512" and charging_p >= 256 and entry["speedup_vs_scalar"] < SPEEDUP_FLOOR:
            failures.append(
                f"{name}: speedup over the scalar oracle fell to "
                f"{entry['speedup_vs_scalar']:.2f}x (< {SPEEDUP_FLOOR:.0f}x floor)"
            )
    return failures


def check_with_retries(
    results: dict[str, Any],
    baseline: dict[str, Any],
    rerun: Callable[[], dict[str, Any]],
    wall_tolerance: float = WALL_TOLERANCE,
    retries: int = WALL_RETRIES,
    log: Callable[[str], None] = print,
    check: Callable[[dict[str, Any], dict[str, Any], float], list[str]] | None = None,
) -> tuple[dict[str, Any], list[str]]:
    """Gate with best-of-k retries for *wall-only* failures.

    Wall-clock on a loaded CI host is the one non-deterministic gate input;
    when every failure from ``check`` (default
    :func:`check_against_baseline`) is a wall-clock regression, the suite
    is re-timed (via ``rerun``) up to ``retries`` times and the gate
    re-evaluated.  Any simulated-cost drift or speedup-floor violation
    short-circuits immediately — those are deterministic and a retry would
    only mask a real regression.  Fully deterministic gates (e.g. the
    ``repro metrics`` conservation/attainment check) reuse this entry point
    with their own ``check``; none of their failures mention wall clocks,
    so they never retry.

    Returns ``(results, failures)`` where ``results`` is the run the final
    verdict was computed from.
    """
    if check is None:
        check = check_against_baseline
    failures = check(results, baseline, wall_tolerance)
    attempt = 0
    while (
        failures
        and attempt < retries
        and all("wall-clock regression" in f for f in failures)
    ):
        attempt += 1
        log(
            f"wall envelope exceeded (attempt {attempt}/{retries}); "
            "re-timing the suite..."
        )
        results = rerun()
        failures = check(results, baseline, wall_tolerance)
    return results, failures


def render_results(results: dict[str, Any]) -> str:
    """Fixed-width summary table of a results document."""
    from repro.report.tables import format_table

    rows = []
    for name, entry in results["cases"].items():
        cost = entry["cost"]
        per_s = entry.get("rank_charges_per_s")
        rows.append(
            [
                name,
                f"{entry['wall_s']:.4f}",
                f"{entry['scalar_wall_s']:.4f}",
                f"{entry['speedup_vs_scalar']:.1f}x",
                f"{per_s:.3g}" if per_s is not None else "-",
                f"{cost['flops']:.6g}" if "flops" in cost else f"Wexp={cost['W_exponent']:.3f}",
                f"{cost['words']:.6g}" if "words" in cost else f"Sexp={cost['S_exponent']:.3f}",
                f"{cost['mem_traffic']:.6g}" if "mem_traffic" in cost else "-",
                int(cost["supersteps"]) if "supersteps" in cost else "-",
            ]
        )
    return format_table(
        ["case", "wall s", "scalar s", "speedup", "charges/s", "F", "W", "Q", "S"],
        rows,
        title="accounting-engine benchmark (medians; oracle bit-identical)",
    )


def write_results(results: dict[str, Any], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path) -> dict[str, Any]:
    if not path.is_file():
        raise FileNotFoundError(
            f"no benchmark baseline at {path}; create one with `repro bench --out {path}`"
        )
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"benchmark baseline {path} is unreadable: {exc}") from exc
    except ValueError as exc:
        raise BenchError(
            f"benchmark baseline {path} is not valid JSON ({exc}); "
            f"regenerate it with `repro bench --out {path}`"
        ) from exc
