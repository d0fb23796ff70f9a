#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, two clocks.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1
        one run of one workload: prints every metric by name with its unit
        and, as the last line, the result as one JSON object
    python3 benchmarks/e2e/run.py [--rounds R] [--seed N] [--seconds T] [--out FILE]
        R rounds over all five workloads, round-robin so host drift spreads
        evenly over them, then one traced run each; --out keeps the records
    python3 benchmarks/e2e/run.py --compare A.json B.json
        parent-vs-change table with one verdict per (metric, workload)

``--trace 0`` measures the end-to-end metrics with tracing off: the window
of T seconds is split over LEGS fresh processes (leg.py), each of which
sets the workload up cold and then times ops, so set-up is sampled LEGS
times and per-process effects average out inside the run.  ``--trace 1``
is the separate traced run (one leg) that yields the per-layer metrics.
The exit code is non-zero on any failed check.  README.md has the glossary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare
import metrics as registry

#: fresh processes per untraced run
LEGS = 3


def stat(values: list[float], unit: str) -> dict:
    """Median with both quartiles and the sample count."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def run_leg(args, leg: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "leg.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(args.trace), "--leg", str(leg)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_one(args) -> dict:
    """One run of one workload: start the legs, merge their records."""
    n_legs = 1 if args.trace else LEGS
    legs = [run_leg(args, i, args.seconds / n_legs) for i in range(n_legs)]
    failures = [f"leg {i}: {f}" for i, leg in enumerate(legs) for f in leg["failures"]]
    failed = sum(leg["failed"] for leg in legs)
    for i, leg in enumerate(legs[1:], 1):
        if leg["digest"] != legs[0]["digest"] or leg.get("sim") != legs[0].get("sim"):
            failures.append(f"leg {i}: outcome or sim metrics differ from leg 0")
            failed = max(failed, leg["attempted"])
    if args.trace:
        metrics = {m.name: {"value": legs[0]["layer"][m.name], "unit": m.unit}
                   for m in registry.PER_LAYER}
    else:
        metrics = {
            "setup_s": stat([leg["setup_s"] for leg in legs], "s"),
            "op_wall_s": stat([w for leg in legs for w in leg["walls"]], "s"),
            "peak_rss_mb": stat([leg["rss_mb"] for leg in legs], "MB"),
        }
        for m in registry.END_TO_END:
            if m.name not in metrics:
                metrics[m.name] = stat([legs[0]["sim"][m.name]], m.unit)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics,
        "attempted": sum(leg["attempted"] for leg in legs), "failed": failed,
        "failures": failures, "correct": not failures and failed == 0,
        "spectrum_err": legs[0]["spectrum_err"],
        "descriptor": legs[0]["descriptor"], "env": [leg["env"] for leg in legs],
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    name = record["workload"]
    for key, m in record["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]" if m.get("n", 1) > 1 else ""
        print(f"{name}  {key} = {m['value']:.9g} {m['unit']}{spread}")
    if not record["trace"]:
        print(f"{name}  jobs_per_s = {1.0 / record['metrics']['op_wall_s']['value']:.6g} 1/s"
              "  (ops per second: the inverse of op_wall_s)")
        print(f"{name}  spectrum_err = {record['spectrum_err']:.4g} n-eps-norm")
    print(f"{name}  fail_share = {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"{name}  FAILED CHECK: {failure}")


def run_all(args) -> int:
    """R rounds over every workload, then one traced run each."""
    doc = {"seed": args.seed, "seconds": args.seconds, "rounds": args.rounds,
           "runs": {w: [] for w in registry.WORKLOADS}, "traced": {}}
    plan = [(w, 0) for _ in range(args.rounds) for w in registry.WORKLOADS]
    plan += [(w, 1) for w in registry.WORKLOADS]
    for workload, trace in plan:
        record = run_one(argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace}))
        report(record)
        sys.stdout.flush()
        if trace:
            doc["traced"][workload] = record
        else:
            doc["runs"][workload].append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    records = [r for rs in doc["runs"].values() for r in rs] + list(doc["traced"].values())
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(registry.WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=3,
                    help="untraced runs per workload when no --workload is given")
    ap.add_argument("--out", help="write the full record(s) to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    record = run_one(args)
    report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
