"""``run.py --compare A.json B.json``: parent-vs-change table with verdicts.

One row per (end-to-end metric, workload): both medians with quartiles, the
ratio B/A with its base, and one verdict —

* ``within``      B's median is not worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the run-to-run spread (IQR / median of either side) is
  wider than the bound *and* the two sides' runs overlap, so the data cannot
  say (never reported as "unchanged").

Sim metrics repeat exactly, so any worsening at all is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics as registry


def load(path: str) -> dict[str, list[dict]]:
    """``{workload: [untraced run records]}`` from a result file (a
    multi-round document or a single ``--workload … --out`` record)."""
    doc = json.loads(Path(path).read_text())
    if "runs" in doc:
        return {w: rs for w, rs in doc["runs"].items() if rs}
    return {doc["workload"]: [doc]}


def summarize(records: list[dict], name: str) -> dict:
    """Median and quartiles over runs; one run falls back on its own
    per-op quartiles."""
    values = [r["metrics"][name]["value"] for r in records]
    if len(values) == 1:
        m = records[0]["metrics"][name]
        return {"median": m["value"], "q1": m["q1"], "q3": m["q3"],
                "lo": m["q1"], "hi": m["q3"], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "lo": min(values), "hi": max(values), "n": len(values)}


def verdict(metric: registry.Metric, a: dict, b: dict) -> str:
    ratio = b["median"] / a["median"]
    worse_by = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if metric.exact:
        return "regressed" if worse_by > 0 else "within"
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    overlap = not (b["hi"] < a["lo"] or b["lo"] > a["hi"])
    if spread > metric.bound and overlap:
        return "unresolved"
    return "regressed" if worse_by > metric.bound else "within"


def rows(a_runs: dict[str, list[dict]], b_runs: dict[str, list[dict]]) -> list[dict]:
    out = []
    for workload in registry.WORKLOADS:
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in registry.END_TO_END:
            a = summarize(a_runs[workload], metric.name)
            b = summarize(b_runs[workload], metric.name)
            out.append({"metric": metric.name, "workload": workload, "unit": metric.unit,
                        "a": a, "b": b, "ratio": b["median"] / a["median"],
                        "verdict": verdict(metric, a, b)})
    return out


def main(path_a: str, path_b: str) -> int:
    table = rows(load(path_a), load(path_b))
    if not table:
        print("compare: the two files share no workload", file=sys.stderr)
        return 2

    def side(s: dict) -> str:
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"

    print(f"A = {path_a}\nB = {path_b}\nratio = B median / A median (base: A)")
    for r in table:
        print(f"{r['workload']:15s} {r['metric']:16s} {r['unit']:9s} A {side(r['a'])}  "
              f"B {side(r['b'])}  ratio {r['ratio']:.4f}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in table)
              for v in ("within", "regressed", "unresolved")}
    print("  ".join(f"{k}: {v}" for k, v in counts.items()))
    return 1 if counts["regressed"] else 0
