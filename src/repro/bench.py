"""The pinned simulated-cost suite and its exact gate (``repro bench``).

``repro bench`` runs a pinned micro-suite on the simulated machine:

* ``charging_p512`` — machine-level charging: a fixed loop of group
  charges, batched charges, collectives, streaming traffic and memory notes
  on a p=512 machine (no numerics — pure accounting);
* ``eig_n96_p16`` — one full-pipeline :func:`repro.eig.eigensolve_2p5d`
  run at pinned (n, p, δ, seed);
* ``eig_n512_p256`` — the same full pipeline at large pinned (n, p), the
  instance class the charge log's one-flush landing exists for;
* ``scaling_exponents`` — a small pinned (n, p, δ) grid of band-to-band
  runs with the paper's band-width scaling b ≈ n/p^δ; the measured W and S
  are log-log–regressed against Lemma IV.3's closed forms and the fitted
  exponents gated (see :func:`fit_loglog_slope`).

Results go to ``benchmarks/results/BENCH_engine.json``:

``cost``                 simulated F / W / Q / S / M (+ totals) — gated
``wall_s``               median host wall-clock of ``--repeats`` runs
``wall_s_runs``          the individual runs behind that median
``rank_charges``         per-rank counter updates performed by the case
``rank_charges_per_s``   ``rank_charges / wall_s``

Two clocks, each gated in one place.  *Simulated cost* is deterministic, so
``repro bench --check BENCH_engine.json`` compares the ``pinned`` and
``cost`` sections by exact float equality — any drift is a real accounting
change that must be recommitted deliberately — and nothing else: the wall
fields are recorded for the reader, never compared, so the gate cannot fail
on a timing.  *Host wall time* is compared by the repo benchmark
(``BENCHMARK.json``, ``benchmarks/e2e/`` ``--compare``), which runs parent
and change in alternating pairs on the same instances (``charging_p512`` is
its ``bsp.charging_p512_s``, ``eig_n512_p256`` its ``chase_large``).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bsp import BSPMachine, collectives
from repro.bsp.pattern import uniform
from repro.bsp.counters import CostReport

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

#: cost fields pinned by the baseline (aggregate; per-rank identity with the
#: scalar oracle is asserted by ``tests/test_engine_equivalence.py``)
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
        machine.charge_comm_batch(world, 4.0, 4.0, pattern=uniform(p))
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


def run_charging() -> tuple[CostReport, float]:
    cfg = PINNED["charging"]
    machine = BSPMachine(cfg["p"])
    t0 = time.perf_counter()
    report = charging_workload(machine, cfg["iters"])
    wall = time.perf_counter() - t0
    return report, wall


def run_eig(cfg_key: str = "eig") -> tuple[CostReport, float]:
    from repro.eig import eigensolve_2p5d
    from repro.util.matrices import random_symmetric

    cfg = PINNED[cfg_key]
    a = random_symmetric(cfg["n"], seed=cfg["seed"])
    machine = BSPMachine(cfg["p"])
    t0 = time.perf_counter()
    eigensolve_2p5d(machine, a, delta=cfg["delta"])
    wall = time.perf_counter() - t0
    return machine.cost(), wall


def run_eig_large() -> tuple[CostReport, float]:
    return run_eig("eig_large")


CASES: dict[str, Callable[[], tuple[CostReport, float]]] = {
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


def run_scaling_point(n: int, p: int, delta: float) -> tuple[CostReport, float]:
    """One band-to-band reduction at (n, p, δ) with b = scaling_bandwidth."""
    from repro.dist.banded import DistBandMatrix
    from repro.eig.band_to_band import band_to_band_2p5d
    from repro.util.matrices import random_banded_symmetric

    cfg = PINNED["scaling"]
    b = scaling_bandwidth(n, p, delta)
    a = random_banded_symmetric(n, b, seed=cfg["seed"])
    machine = BSPMachine(p)
    t0 = time.perf_counter()
    band = DistBandMatrix(machine, a, b, machine.world)
    band_to_band_2p5d(machine, band, k=cfg["k"])
    wall = time.perf_counter() - t0
    return machine.cost(), wall


def run_scaling_case(repeats: int) -> dict[str, Any]:
    """Run the pinned scaling grid; fit and gate the exponents.

    The fitted W exponent must be 1 ± ``W_EXPONENT_TOL`` and the fitted S
    exponent at most 1 + ``S_EXPONENT_SLACK``.  The fitted slopes and
    per-point measurements land in the entry's ``cost`` dict, so the
    baseline check pins them by exact equality like every other cost.
    """
    cfg = PINNED["scaling"]
    walls = [0.0] * repeats
    w_meas: list[float] = []
    s_meas: list[int] = []
    w_closed: list[float] = []
    s_closed: list[float] = []
    grid_doc: list[dict[str, Any]] = []
    for n, p, delta in cfg["grid"]:
        for r in range(repeats):
            report, wall = run_scaling_point(n, p, delta)
            walls[r] += wall
        b = scaling_bandwidth(n, p, delta)
        wc, sc = lemma_iv3_closed_forms(n, p, b, cfg["k"], delta)
        w_meas.append(float(report.words))
        s_meas.append(int(report.supersteps))
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
    return {
        "wall_s": statistics.median(walls),
        "wall_s_runs": walls,
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
    """The benchmark suite failed (a gate was violated or a baseline is unusable)."""


def run_suite(repeats: int = 3, log: Callable[[str], None] = print) -> dict[str, Any]:
    """Run every pinned case ``repeats`` times; return the results document.

    Raises :class:`BenchError` if the fitted scaling exponents leave their
    tolerance.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results: dict[str, Any] = {"version": 1, "pinned": PINNED, "cases": {}}
    for name, case in CASES.items():
        if CASE_PINNED_KEY[name] not in PINNED:
            continue
        walls: list[float] = []
        for _ in range(repeats):
            report, wall = case()
            walls.append(wall)
        wall = statistics.median(walls)
        entry: dict[str, Any] = {
            "wall_s": wall,
            "wall_s_runs": walls,
            "cost": cost_dict(report),
        }
        if name == "charging_p512":
            cfg = PINNED["charging"]
            entry["rank_charges"] = _charging_rank_charges(cfg["p"], cfg["iters"])
            entry["rank_charges_per_s"] = entry["rank_charges"] / wall if wall > 0 else float("inf")
        results["cases"][name] = entry
        log(f"{name}: wall={wall:.4f}s")
    if "scaling" in PINNED:
        entry = run_scaling_case(repeats)
        results["cases"]["scaling_exponents"] = entry
        log(
            f"scaling_exponents: wall={entry['wall_s']:.4f}s "
            f"W_exp={entry['cost']['W_exponent']:.4f} "
            f"S_exp={entry['cost']['S_exponent']:.4f}"
        )
    return results


def _leaf(value: Any) -> str:
    text = repr(value.item() if isinstance(value, np.generic) else value)
    return text if len(text) <= 80 else text[:77] + "..."


def exact_diff(fresh: Any, baseline: Any, path: str = "") -> list[str]:
    """Every place two JSON documents differ, one line per leaf ([] = equal).

    The one differ behind all four ``--check`` gates (this module,
    :mod:`repro.serve.bench`, :mod:`repro.metrics.report`,
    :mod:`repro.obs.report`), which hand it the deterministic part of their
    documents.  Recursive over dicts and lists; leaves compare with ``==``
    (floats exactly — the simulation is deterministic, so the last bit
    counts); a key or entry on one side only fails in either direction.
    Each line starts with the JSON path of the leaf
    (``attainment[1].ratio.words: baseline 14.8 != fresh 7.4``).
    """
    if isinstance(fresh, dict) and isinstance(baseline, dict):
        failures: list[str] = []
        for key in [*baseline, *(k for k in fresh if k not in baseline)]:
            sub = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                failures.append(f"{sub}: in the baseline but missing from this run")
            elif key not in baseline:
                failures.append(f"{sub}: missing from baseline")
            else:
                failures.extend(exact_diff(fresh[key], baseline[key], sub))
        return failures
    if isinstance(fresh, (list, tuple)) and isinstance(baseline, (list, tuple)):
        if len(fresh) != len(baseline):
            return [f"{path}: baseline has {len(baseline)} entries != fresh {len(fresh)}"]
        return [
            failure
            for i, (f, b) in enumerate(zip(fresh, baseline))
            for failure in exact_diff(f, b, f"{path}[{i}]")
        ]
    if fresh == baseline:
        return []
    return [f"{path}: baseline {_leaf(baseline)} != fresh {_leaf(fresh)}"]


def _gated(doc: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a results document: every case's ``cost``."""
    return {"cases": {k: {"cost": e.get("cost", {})} for k, e in doc.get("cases", {}).items()}}


def check_against_baseline(fresh: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Gate failures of a fresh run versus the committed baseline ([] = pass).

    The pinned inputs, the set of cases and every simulated cost must match
    exactly, in both directions.  Wall-clock fields are not read (module
    docstring: host time is gated by ``benchmarks/e2e``).
    """
    if fresh.get("pinned") != baseline.get("pinned"):
        return [
            "pinned suite inputs differ from the baseline — regenerate it with "
            "`repro bench --out BENCH_engine.json`"
        ]
    return exact_diff(_gated(fresh), _gated(baseline))


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
                f"{per_s:.3g}" if per_s is not None else "-",
                f"{cost['flops']:.6g}" if "flops" in cost else f"Wexp={cost['W_exponent']:.3f}",
                f"{cost['words']:.6g}" if "words" in cost else f"Sexp={cost['S_exponent']:.3f}",
                f"{cost['mem_traffic']:.6g}" if "mem_traffic" in cost else "-",
                int(cost["supersteps"]) if "supersteps" in cost else "-",
            ]
        )
    return format_table(
        ["case", "wall s", "charges/s", "F", "W", "Q", "S"],
        rows,
        title="simulated-cost benchmark (costs gated exactly; wall s is a recorded median)",
    )


def write_document(doc: dict[str, Any], path: Path | str) -> Path:
    """Write a results / baseline document (any of the four gated kinds) to
    ``path`` — parents created, keys sorted — and return the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out


def load_document(path: Path | str, what: str, create_with: str) -> dict[str, Any]:
    """Load a committed document, e.g. ``what="serve baseline"``.

    One contract for every gate: a missing file raises ``FileNotFoundError``
    naming the file and the command that creates it (``create_with``, e.g.
    ``"repro serve-bench --out"``); an unreadable or malformed one raises
    :class:`BenchError`.  The CLI turns all three into exit 2.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no {what} at {path}; create one with `{create_with} {path}`")
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"{what} {path} is unreadable: {exc}") from exc
    except ValueError as exc:
        raise BenchError(
            f"{what} {path} is not valid JSON ({exc}); "
            f"regenerate it with `{create_with} {path}`"
        ) from exc
