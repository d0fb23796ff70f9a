"""Charge-mutation sweep: for each broken charge, which gate notices?

Every statement-level charging call in ``src/repro/{blocks,dist,eig}`` is a
*site*.  Each mutant is one source edit on a temporary copy of ``src/``,
run in a fresh subprocess (the working tree is never touched):

* ``drop`` — the site becomes ``pass``;
* ``halve`` — the charged amounts are scaled by 1/2, on both sides of a
  comm charge (``superstep`` is skipped: halving a count of 1 drops it);
* ``insert_matmul`` / ``insert_linalg`` — once per enclosing function, an
  uncharged ``@`` or direct ``np.linalg`` call goes before its first site.

A reach pre-pass replaces each site with ``raise SystemExit``; a site no
config reaches is reported as unreached and its drop / halve mutants are
not run.  Every config runs on a plain ``BSPMachine`` (its charge logs
record no ordering points) and on ``VerifiedMachine.for_problem(...,
spans=True, metrics=True)`` (the same flush also hands the span recorder
and the metrics collector every ordering point).  A mutant's gate is the first of :data:`GATES` that fires
in any config; ``killers`` lists every gate that fired.

    PYTHONPATH=src python tests/mutation_sweep.py --out kill_matrix.json [--jobs 2]

writes the kill matrix as JSON and exits 1 if any reached mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SITE_DIRS = ("blocks", "dist", "eig")
#: argument positions of the charged amounts, per charging call (keywords —
#: ``pattern=``, the log's ``step=`` — are left alone)
AMOUNTS = {
    "charge_flops": (1,), "charge_flops_batch": (1,), "charge_comm": (1, 3),
    "charge_comm_batch": (1, 2), "charge_comm_matrix": (1,), "superstep": (),
    "mem_stream": (1,), "mem_stream_group": (1,), "mem_read": (2,),
    "transfer": (2,),
}
INSERTS = {
    "insert_matmul": "np.ones((2, 2)) @ np.ones((2, 2))",
    "insert_linalg": "np.linalg.norm(np.ones((2, 2)))",
}
#: in the order they are consulted; "numerics" is tests/test_numerics_charged.py
GATES = ("discipline", "metrics", "spans", "exception", "numerics", "counters")
REACHED = 97  # exit status of a child that hit a reach probe
P, N, SEED = 16, 96, 3
#: eig.SOLVERS at n = 96, a ragged n, and kernel-level calls of the blocks
#: no solver reaches at these sizes
WORKLOADS = (
    "eig2p5d/d0.50", "eig2p5d/d0.67", "scalapack_like", "elpa_like", "ca_sbr",
    "eig2p5d/n100", "carma", "carma_dfs", "streaming", "sqr25d",
)
CONFIGS = tuple(f"{w}/{m}" for w in WORKLOADS for m in ("plain", "verified"))


@dataclass(frozen=True)
class Site:
    path: str  # relative to src/repro
    line: int
    end: int
    call: str
    function: str
    def_line: int

    @property
    def name(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class Mutant:
    kind: str  # drop | halve | insert_matmul | insert_linalg | reach
    site: Site


def _callee(call: ast.Call) -> str | None:
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def find_sites(src: Path = SRC) -> list[Site]:
    """Statement-level charging calls, with their innermost enclosing function."""
    sites = []
    for d in SITE_DIRS:
        for path in sorted((src / "repro" / d).glob("*.py")):
            tree = ast.parse(path.read_text())
            funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                    continue
                call = _callee(node.value)
                if call in AMOUNTS:
                    fn = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                             key=lambda f: f.lineno)
                    rel = f"{d}/{path.name}"
                    sites.append(Site(rel, node.lineno, node.end_lineno, call, fn.name, fn.lineno))
    return sorted(sites, key=lambda s: (s.path, s.line))


def mutants(sites: list[Site]) -> list[Mutant]:
    out = [Mutant("drop", s) for s in sites]
    out += [Mutant("halve", s) for s in sites if s.call != "superstep"]
    first: dict[tuple[str, int], Site] = {}
    for s in sites:
        first.setdefault((s.path, s.def_line), s)
    return out + [Mutant(kind, s) for s in first.values() for kind in INSERTS]


def _halved(statement: str) -> str:
    stmt = ast.parse(statement).body[0]
    call = stmt.value
    for i in AMOUNTS[_callee(call)]:
        call.args[i] = ast.BinOp(call.args[i], ast.Mult(), ast.Constant(0.5))
    return ast.unparse(stmt)


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` (the site's module) with ``mutant`` applied."""
    site, lines = mutant.site, text.splitlines(keepends=True)
    old = lines[site.line - 1 : site.end]
    indent = old[0][: len(old[0]) - len(old[0].lstrip())]
    blank = ["\n"] * (len(old) - 1)
    if mutant.kind in INSERTS:
        new = [f"{indent}{INSERTS[mutant.kind]}\n", *old]
    elif mutant.kind == "halve":
        new = [indent + _halved(textwrap.dedent("".join(old))) + "\n", *blank]
    else:
        stmt = "pass" if mutant.kind == "drop" else f"raise SystemExit({REACHED})"
        new = [f"{indent}{stmt}\n", *blank]
    return "".join(lines[: site.line - 1] + new + lines[site.end :])


# ---------------------------------------------------------------------- #
# child side: runs on the (mutated) copy that PYTHONPATH points at


def _workload(name: str):
    """``(n, δ, run(machine))`` of one sweep workload."""
    import numpy as np

    from repro.blocks import carma_matmul, square_qr_25d, streaming_matmul
    from repro.dist.grid import ProcGrid, factor_2p5d
    from repro.eig import SOLVERS
    from repro.util import random_symmetric

    solver, _, variant = name.partition("/")
    rng = np.random.default_rng(SEED)
    if solver in SOLVERS:
        n, delta = (100 if variant == "n100" else N), (2 / 3 if variant == "d0.67" else 0.5)
        a = random_symmetric(n, seed=SEED)
        return n, delta, lambda m: SOLVERS[solver](m, a, delta)
    if name == "carma":
        a, b = rng.standard_normal((64, 48)), rng.standard_normal((48, 32))
        return N, 0.5, lambda m: carma_matmul(m, m.world, a, b)
    if name == "carma_dfs":  # the budget forces a depth-first split of the inner dimension
        a, b = rng.standard_normal((16, N)), rng.standard_normal((N, 16))
        return N, 0.5, lambda m: carma_matmul(m, m.world, a, b, memory_words=200.0)
    a = rng.standard_normal((N, N // 2))
    if name == "streaming":
        q, c = factor_2p5d(P, 2 / 3)
        b = rng.standard_normal((N // 2, 32))
        return N, 2 / 3, lambda m: streaming_matmul(
            m, ProcGrid(m, (q, q, c), m.world.take(q * q * c)), a, b)
    assert name == "sqr25d", name
    return N, 2 / 3, lambda m: square_qr_25d(m, m.world, a, delta=2 / 3)


def run_config(config: str) -> dict:
    """Run one ``workload/machine`` config: the runtime gate that fired
    (or None) and a digest of the per-rank counters."""
    from repro.bsp import BSPMachine
    from repro.bsp.counters import COUNTER_FIELDS
    from repro.lint.verify import BSPDisciplineError, VerifiedMachine

    workload, _, kind = config.rpartition("/")
    n, delta, run = _workload(workload)
    if kind == "plain":
        machine = BSPMachine(P)
    else:
        machine = VerifiedMachine.for_problem(P, n, delta, spans=True, metrics=True)
    gate, error = None, None
    try:
        run(machine)
        if kind == "verified" and machine.metrics.verify_conservation(machine.counters):
            gate = "metrics"
        elif kind == "verified" and machine.cost().by_span().verify_exact():
            gate = "spans"
    except BSPDisciplineError as exc:
        gate, error = "discipline", str(exc)
    except Exception as exc:  # noqa: BLE001 — any other failure is gate 4; keep its message
        gate, error = "exception", f"{type(exc).__name__}: {exc}"
    counters = b"".join(machine.counters.field_array(f).tobytes() for f in COUNTER_FIELDS)
    return {"gate": gate, "error": error, "counters": hashlib.sha256(counters).hexdigest()}


def _child_main(configs: list[str]) -> None:
    import repro

    if not Path(repro.__file__).is_relative_to(os.environ["PYTHONPATH"]):
        # an installed repro shadowing the copy would make every mutant survive
        raise RuntimeError(f"imported {repro.__file__}, not the mutated copy")
    out = {}
    for config in configs:
        print(f"config {config}", file=sys.stderr, flush=True)
        out[config] = run_config(config)
    print(json.dumps(out))


# ---------------------------------------------------------------------- #
# parent side


def numerics_gate(src: Path) -> list[str]:
    from tests.test_numerics_charged import numerics_findings

    return numerics_findings(src / "repro")


def _run(src: Path, configs: tuple[str, ...], mutant: Mutant | None = None):
    """Copy ``src``, apply ``mutant``, run ``configs`` in a fresh process.

    Returns ``(config that hit the reach probe or None, per-config results,
    numerics findings of the copy)``.
    """
    work = Path(tempfile.mkdtemp(prefix="mutant-"))
    try:
        shutil.copytree(src / "repro", work / "repro", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = work / "repro" / mutant.site.path
            path.write_text(mutate(path.read_text(), mutant))
        env = {**os.environ, "PYTHONPATH": str(work), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", *configs],
            env=env, capture_output=True, text=True, timeout=1800,
        )
        if proc.returncode == REACHED:
            return proc.stderr.strip().splitlines()[-1].split(" ", 1)[1], {}, []
        if proc.returncode:
            raise RuntimeError(f"child failed for {mutant}:\n{proc.stderr}")
        return None, json.loads(proc.stdout.splitlines()[-1]), numerics_gate(work)
    finally:
        shutil.rmtree(work)


def golden(src: Path = SRC, configs: tuple[str, ...] = CONFIGS) -> tuple[dict, set[str]]:
    """Per-config results and numerics findings of the unmutated tree."""
    _, runs, findings = _run(src, configs)
    failed = {c: r["gate"] for c, r in runs.items() if r["gate"]}
    if failed:
        raise RuntimeError(f"unmutated tree fails a gate: {failed}")
    return runs, set(findings)


def reached_by(site: Site, src: Path = SRC, configs: tuple[str, ...] = CONFIGS) -> str | None:
    return _run(src, configs, Mutant("reach", site))[0]


def evaluate(mutant: Mutant, reference: tuple[dict, set[str]], src: Path = SRC,
             configs: tuple[str, ...] = CONFIGS) -> dict:
    """Run one mutant; its first gate, the config that fired it, every killer."""
    runs0, findings0 = reference
    _, runs, findings = _run(src, configs, mutant)
    killers: dict[str, str] = {}  # gate -> first config it fired in
    errors: dict[str, str] = {}
    for config, run in runs.items():
        gate = run["gate"] or ("counters" if run["counters"] != runs0[config]["counters"] else None)
        if gate:
            killers.setdefault(gate, config)
            errors.setdefault(gate, run["error"])
    new = sorted(set(findings) - findings0)
    if new:
        killers["numerics"] = new[0]
    gate = min(killers, key=GATES.index, default="survived")
    return {
        "kind": mutant.kind, "site": mutant.site.name, "call": mutant.site.call,
        "function": mutant.site.function, "gate": gate, "by": killers.get(gate),
        "killers": sorted(killers, key=GATES.index), "error": errors.get(gate), "findings": new,
    }


def sweep(src: Path = SRC, configs: tuple[str, ...] = CONFIGS, jobs: int = 1) -> dict:
    sites = find_sites(src)
    reference = golden(src, configs)
    with ThreadPoolExecutor(jobs) as pool:
        reach = dict(zip(sites, pool.map(lambda s: reached_by(s, src, configs), sites)))
        live = [m for m in mutants(sites) if m.kind in INSERTS or reach[m.site]]
        results = list(pool.map(lambda m: evaluate(m, reference, src, configs), live))
    kinds = ("drop", "halve", *INSERTS)
    return {
        "configs": list(configs),
        "sites": {s.name: reach[s] for s in sites},
        "unreached": [s.name for s in sites if reach[s] is None],
        "matrix": {k: dict(Counter(r["gate"] for r in results if r["kind"] == k)) for k in kinds},
        "survivors": [r for r in results if r["gate"] == "survived"],
        "mutants": results,
    }


def render(matrix: dict) -> str:
    """Mutation kind x first gate, as a markdown table."""
    cols = [*GATES, "survived"]
    rows = ["| kind | " + " | ".join(cols) + " |", "|---" * (len(cols) + 1) + "|"]
    for kind, gates in matrix["matrix"].items():
        rows.append(f"| {kind} | " + " | ".join(str(gates.get(g, 0)) for g in cols) + " |")
    return "\n".join(rows + [f"unreached sites: {len(matrix['unreached'])} of {len(matrix['sites'])}"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the kill matrix here (JSON)")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run in parallel")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child_main(args.child)
        return 0
    matrix = sweep(jobs=args.jobs)
    if args.out:
        args.out.write_text(json.dumps(matrix, indent=1) + "\n")
    print(render(matrix))
    return 1 if matrix["survivors"] else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))  # for tests.test_numerics_charged
    sys.exit(main())
