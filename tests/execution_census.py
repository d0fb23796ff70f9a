"""Execution census: which functions under ``src/repro`` does nothing run?

``tests/test_reachability.py`` proves every module is *imported* from the
CLI; this proves every function is *called* by something the project
actually runs.  One process records a ``sys.setprofile`` call event per
code object while it runs, in turn:

* the five ``BENCHMARK.json`` workloads, each built by
  ``benchmarks/e2e/workloads.build(name)``: ``setup`` (which runs the
  warm-up op), one more ``op`` and the output checks a benchmark leg makes;
* every CI command (``.github/workflows/ci.yml``), through
  ``repro.cli.main``;
* the paper benches (``pytest benchmarks/bench_*.py``);
* the unmutated configs of the nightly charge-mutation sweep
  (``tests/mutation_sweep.py``: every ``eig.SOLVERS`` entry and the block
  kernels, each on a plain and on a span- and metrics-enabled
  ``VerifiedMachine``).

Every output goes to a temporary directory: the committed baselines are
read, never written (``repro chaos`` alone would rewrite
``chaos_report.json`` with this host's ``spectrum_error``).

A function none of them runs must be on :data:`ALLOWLIST`, with a reason
from :data:`REASONS`: code that runs only on bad input or a failed check,
in fault recovery, as a debugging ``__repr__`` or as an accounting
self-check the tests call.  Anything else gets a CI command that runs it,
moves into ``tests/`` as a named oracle, or is deleted.

    PYTHONPATH=src python tests/execution_census.py --out census.json

writes the census as JSON and exits 1 on an unexecuted function that is
not allowlisted, an allowlisted function that did run (drop its entry), or
a run that failed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
E2E = ROOT / "benchmarks" / "e2e"
WORKLOADS = ("chase_large", "finish_wide", "serve_stream", "serve_durable", "chase_observed")
WORKLOAD_SEED = 11

#: why an unexecuted function may stay
REASONS = frozenset({
    "error path",       # runs only on bad input or a failed check
    "fault recovery",   # runs only when an injected fault takes a rank
    "debug repr",       # a ``__repr__`` for interactive debugging
    "invariant check",  # a self-check of the accounting the tests call
})

#: ``path:qualname`` (path relative to src/repro) -> reason from REASONS;
#: ``tests/test_reachability.py`` holds it to a count that may only shrink
ALLOWLIST: dict[str, str] = {
    "bench.py:_leaf": "error path",
    "cli.py:_fail": "error path",
    "eig/driver.py:eigensolve_2p5d.<locals>.loss_b2b": "fault recovery",
    "eig/driver.py:eigensolve_2p5d.<locals>.loss_sbr": "fault recovery",
    "eig/driver.py:eigensolve_2p5d.<locals>.loss_finish": "fault recovery",
    "trace/spans.py:SpanRecorder.verify_attribution": "invariant check",
    "bsp/counters.py:CounterArray.__repr__": "debug repr",
    "bsp/machine.py:BSPMachine.__repr__": "debug repr",
    "bsp/pattern.py:Pattern.__repr__": "debug repr",
    "dist/grid.py:ProcGrid.__repr__": "debug repr",
    "faults/machine.py:FaultyMachine.__repr__": "debug repr",
    "faults/plan.py:FaultPlan.__repr__": "debug repr",
    "lint/verify.py:VerifiedMachine.__repr__": "debug repr",
    "metrics/collector.py:MetricsCollector.__repr__": "debug repr",
    "metrics/sketch.py:LatencySketch.__repr__": "debug repr",
    "obs/telemetry.py:NoTelemetry.__repr__": "debug repr",
    "obs/telemetry.py:Telemetry.__repr__": "debug repr",
    "trace/spans.py:SpanRecorder.__repr__": "debug repr",
}


def functions(pkg: Path = PKG) -> dict[str, tuple[int, int, str]]:
    """``path:qualname -> (first line, last line, parent key)`` of every
    ``def`` under ``pkg``; the first line is the first decorator's, as in
    ``co_firstlineno``, and the parent key is "" for a top-level def."""
    out: dict[str, tuple[int, int, str]] = {}

    def walk(node: ast.AST, path: str, prefix: str, parent: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{path}:{prefix}{child.name}"
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                if key in out:  # a property setter / redefinition: tell them apart
                    key = f"{key}@{first}"
                out[key] = (first, child.end_lineno, parent)
                walk(child, path, f"{prefix}{child.name}.<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.", parent)
            else:
                walk(child, path, prefix, parent)

    for file in sorted(pkg.rglob("*.py")):
        rel = file.relative_to(pkg).as_posix()
        walk(ast.parse(file.read_text()), rel, "", "")
    return out


def _workload_run(name: str, tmp: Path):
    def run() -> int:
        import workloads

        wl = workloads.build(name)
        tmp.mkdir()
        wl.setup(WORKLOAD_SEED, tmp)
        result = wl.op()
        failures, _, _ = wl.check([result])
        wl.sim(result)
        wl.descriptor()
        wl.stage_entries(result)
        if wl.observed:
            wl.op(observed=False)
        if wl.durable:
            wl.resume()
        return 1 if failures else 0
    return run


def _cli_run(argv: list[str]):
    def run() -> int:
        from repro.cli import main

        return main(argv)
    return run


def _bench_run(tmp: Path):
    def run() -> int:
        import _common
        import pytest

        _common.RESULTS_DIR = tmp / "bench_results"
        benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
        return int(pytest.main(["-q", "-p", "no:cacheprovider", *benches]))
    return run


def _sweep_run() -> int:
    from tests import mutation_sweep

    gates = [mutation_sweep.run_config(c)["gate"] for c in mutation_sweep.CONFIGS]
    return 1 if any(gates) else 0


def runs(tmp: Path) -> list[tuple[str, Callable[[], int]]]:
    """``(label, thunk -> exit status)`` of everything the census runs."""
    t = str(tmp)
    results = ROOT / "benchmarks" / "results"
    cli = [
        ["solve"],
        ["solve", "--verify", "--n", "64", "--p", "16"],
        ["solve", "--n", "32", "--p", "4", "--faults", "chaos:1"],
        ["bench", "--check", str(ROOT / "BENCH_engine.json"), "--out", f"{t}/bench.json"],
        ["trace", "--n", "96", "--p", "16", "--per-rank", "--out", f"{t}/trace96.json"],
        ["trace", "--n", "512", "--p", "256", "--out", f"{t}/trace512.json"],
        ["metrics", "--check", str(results / "metrics_eig_n96_p16.json"),
         "--out", f"{t}/metrics.json"],
        ["chaos", "--seeds", "8", "--out", f"{t}/chaos_report.json"],
        ["serve-bench", "--check", str(ROOT / "BENCH_serve.json"), "--out", f"{t}/serve.json",
         "--cache", f"{t}/serve_cache.json", "--trace-out", f"{t}/serve_trace.json"],
        ["serve-bench", "--telemetry-only", "--telemetry-out", f"{t}/telemetry_fresh.json",
         "--telemetry-check", str(results / "telemetry.json"),
         "--merged-trace-out", f"{t}/merged.json", "--dash-out", f"{t}/dash.html"],
        ["dash", "--telemetry", f"{t}/telemetry_fresh.json", "--out", f"{t}/dash2.html"],
        ["serve-bench", "--soak", "--soak-jobs", "48", "--faults", "flaky-machine",
         "--soak-out", f"{t}/soak.json", "--journal", f"{t}/journal.jsonl"],
        ["table1"], ["figure1"], ["figure2"], ["tune"],
    ]
    out = [(f"workload {w}", _workload_run(w, tmp / w)) for w in WORKLOADS]
    out += [("repro " + " ".join(a).replace(t, "$TMP"), _cli_run(a)) for a in cli]
    out.append(("pytest benchmarks/bench_*.py", _bench_run(tmp)))
    return out + [("nightly mutation sweep, unmutated configs", _sweep_run)]


def census() -> dict:
    """Run everything under the profiler; the census document."""
    sys.path[:0] = [str(E2E), str(ROOT / "benchmarks"), str(PKG.parent), str(ROOT)]
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    log = []
    t_all = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for label, run in runs(Path(tmp)):
            t0 = time.perf_counter()
            sys.setprofile(hook)
            try:
                with open(Path(tmp) / "stdout.txt", "a") as sink, contextlib.redirect_stdout(sink):
                    rc = run()
            except SystemExit as exc:
                rc = exc.code
            finally:
                sys.setprofile(None)
            log.append({"run": label, "rc": rc, "wall_s": round(time.perf_counter() - t0, 2)})
            print(f"{label}: exit {rc} ({log[-1]['wall_s']} s)", file=sys.stderr)
    executed = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in seen}

    funcs = functions()
    dead = {
        key: (first, last, parent) for key, (first, last, parent) in funcs.items()
        if (PKG / key.split(":")[0], first) not in executed
    }
    # an unexecuted def inside an unexecuted def is counted with its parent
    lines = {k: v[1] - v[0] + 1 for k, v in dead.items() if v[2] not in dead}
    src_lines = sum(len(p.read_text().splitlines()) for p in PKG.rglob("*.py"))
    return {
        "runs": log,
        "wall_s": round(time.perf_counter() - t_all, 1),
        "functions": len(funcs),
        "src_lines": src_lines,
        "unexecuted_functions": len(dead),
        "unexecuted_lines": sum(lines.values()),
        "allowlisted_lines": sum(n for k, n in lines.items() if k in ALLOWLIST),
        "unexecuted": {k: {"lines": v[1] - v[0] + 1, "allowlisted": ALLOWLIST.get(k)}
                       for k, v in dead.items()},
        "not_allowlisted": sorted(set(dead) - set(ALLOWLIST)),
        "allowlisted_but_executed": sorted(set(ALLOWLIST) - set(dead)),
        "failed_runs": [r["run"] for r in log if r["rc"] != 0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the census here (JSON)")
    args = parser.parse_args(argv)
    doc = census()
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(
        f"{doc['unexecuted_functions']} of {doc['functions']} functions "
        f"({doc['unexecuted_lines']} of {doc['src_lines']} lines) unexecuted; "
        f"{doc['allowlisted_lines']} lines allowlisted ({doc['wall_s']} s)"
    )
    for key in doc["not_allowlisted"]:
        print(f"unexecuted, not allowlisted: {key}")
    for key in doc["allowlisted_but_executed"]:
        print(f"allowlisted but executed (drop the entry): {key}")
    for run in doc["failed_runs"]:
        print(f"run failed: {run}")
    return 1 if doc["not_allowlisted"] or doc["allowlisted_but_executed"] or doc["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
