"""Chaos harness: seeded fault-scenario sweeps over the pinned eigensolve.

Each seed selects a scenario (cycling :data:`~repro.faults.plan.SCENARIOS`)
and runs the full 2.5D pipeline on a :class:`~repro.faults.FaultyMachine`.
The **chaos invariant** classifies every run:

* ``recovered``    — the spectrum matches the numpy reference within the
                     clean-run tolerance (faults absorbed or never fired);
* ``typed-error``  — a :class:`~repro.faults.errors.FaultDetected` /
                     :class:`~repro.faults.errors.UnrecoverableFault`
                     escaped, naming the failing span;
* ``silent-wrong`` — the run "succeeded" with a wrong spectrum.  This must
                     never happen; ``repro chaos`` exits nonzero on any.

Runs are exactly reproducible from ``(scenario, seed)`` — the plan draws at
algorithm-determined sites in a deterministic order, and nothing in the
harness touches the wall clock.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.faults.errors import FaultError
from repro.faults.machine import FaultPlan, FaultyMachine
from repro.faults.plan import SCENARIOS, FaultSpec
from repro.report.tables import format_table
from repro.util.matrices import random_symmetric
from repro.util.validation import reference_spectrum_error

#: seed -> scenario cycle order (index = seed mod len)
SCENARIO_ORDER: tuple[str, ...] = (
    "clean", "rank-failure", "message-drop",
    "message-corrupt", "kernel-corrupt", "chaos",
)

#: spectrum tolerance of the recovered verdict — the clean-run gate that
#: ``repro solve`` applies
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one seeded chaos run."""

    seed: int
    scenario: str
    outcome: str  # "recovered" | "typed-error" | "silent-wrong"
    spectrum_error: float | None
    error_type: str | None
    error: str | None
    span: str | None
    events: int
    recoveries: int
    failed_ranks: tuple[int, ...]
    draws: int
    cost: str

    @property
    def ok(self) -> bool:
        return self.outcome != "silent-wrong"

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["failed_ranks"] = list(self.failed_ranks)
        return doc


def run_scenario(
    seed: int,
    spec: FaultSpec | None = None,
    *,
    n: int = 96,
    p: int = 16,
    delta: float = 2.0 / 3.0,
    tol: float = DEFAULT_TOL,
    matrix_seed: int = 3,
) -> ScenarioOutcome:
    """One seeded fault run of the pinned eigensolve; never raises on
    injected faults — the typed error becomes part of the outcome."""
    from repro.eig.driver import eigensolve_2p5d  # late import: avoid cycle

    if spec is None:
        spec = SCENARIOS[SCENARIO_ORDER[seed % len(SCENARIO_ORDER)]]
    a = random_symmetric(n, seed=matrix_seed)
    machine = FaultyMachine(p, plan=FaultPlan(spec, seed), spans=True)
    error_type = error = span = None
    spectrum_error: float | None = None
    try:
        result = eigensolve_2p5d(machine, a, delta=delta)
    except FaultError as exc:
        outcome = "typed-error"
        error_type = type(exc).__name__
        error = str(exc)
        span = getattr(exc, "span", None)
    else:
        spectrum_error = reference_spectrum_error(a, result.eigenvalues)
        outcome = "recovered" if spectrum_error <= tol else "silent-wrong"
    injector = machine.faults
    return ScenarioOutcome(
        seed=seed,
        scenario=spec.name,
        outcome=outcome,
        spectrum_error=spectrum_error,
        error_type=error_type,
        error=error,
        span=span,
        events=len(machine.plan.events),
        recoveries=len(injector.recoveries),
        failed_ranks=tuple(sorted(injector.failed_ranks)),
        draws=machine.plan.draws,
        cost=machine.cost().summary(),
    )


def run_chaos(
    seeds: Iterable[int] = range(8),
    *,
    n: int = 96,
    p: int = 16,
    delta: float = 2.0 / 3.0,
    tol: float = DEFAULT_TOL,
    matrix_seed: int = 3,
) -> list[ScenarioOutcome]:
    """Sweep the seeded scenarios; one outcome per seed."""
    return [
        run_scenario(seed, n=n, p=p, delta=delta, tol=tol, matrix_seed=matrix_seed)
        for seed in seeds
    ]


def render_report(outcomes: Sequence[ScenarioOutcome], *, n: int, p: int) -> str:
    """ASCII summary table of a chaos sweep."""
    rows = []
    for o in outcomes:
        detail = (
            f"err={o.spectrum_error:.2e}" if o.spectrum_error is not None
            else f"{o.error_type}: span {o.span}"
        )
        rows.append([o.seed, o.scenario, o.outcome, o.events, o.recoveries,
                     len(o.failed_ranks), detail])
    return format_table(
        ["seed", "scenario", "outcome", "faults", "retries", "lost", "detail"],
        rows,
        title=f"chaos sweep (n={n}, p={p}): every run must recover or fail typed",
    )


def write_report(
    outcomes: Sequence[ScenarioOutcome], path: Path | str, *, n: int, p: int
) -> Path:
    """Write the per-scenario outcome report as JSON (the CI artifact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "n": n,
        "p": p,
        "invariant_holds": all(o.ok for o in outcomes),
        "outcomes": [o.as_dict() for o in outcomes],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
