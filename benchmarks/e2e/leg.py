#!/usr/bin/env python3
"""One leg of a benchmark run: a fresh process that sets a workload up cold,
measures it, checks its outputs and prints its record as one JSON line.

``run.py`` starts legs one after another and merges them; a run is several
legs so that set-up is measured cold several times and per-process effects
(memory layout, hash seed) average out inside one run instead of showing up
as run-to-run spread.

Load shape: closed loop, one client, one process, ``workers=0``; BLAS/OpenMP
are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()            # set-up is timed from process start

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]            # code-path switches: benchmark the defaults

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import numpy as np

import layers
import metrics as registry
import workloads
from tracer import OP, Tracer

#: share of a traced leg's window spent on untraced calls (overhead base)
UNTRACED_SHARE = 0.35


def timed_calls(call, seconds: float) -> tuple[list[float], list]:
    """Call repeatedly for ``seconds`` (at least once, stopping when less
    than half a call remains); returns per-call walls and results."""
    walls, results = [], []
    end = time.perf_counter() + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results.append(call())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() + 0.5 * walls[-1] >= end:
            return walls, results


def environment() -> dict:
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


def calibration() -> float:
    """A fixed numpy + pure-Python kernel; shows host drift only."""
    a = np.random.default_rng(0).standard_normal((192, 192))
    t0 = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    sum(i * i for i in range(200_000))
    return time.perf_counter() - t0


def checked(wl, results: list, full: bool) -> tuple[list[str], int, float]:
    """Named failures, failed ops and spectrum_err of a leg's results.

    Every leg proves its ops reproduced the warm-up op bit for bit; only a
    ``full`` leg pays for the reference spectra and single-shot re-solves
    (the other legs of the run are tied to it through the digest)."""
    if full:
        failures, failed, err = wl.check(results)
    else:
        want = wl.digest(wl.reference)
        bad = [i for i, r in enumerate(results) if wl.digest(r) != want]
        failures = [f"op {i}: outcome differs from the warm-up op" for i in bad]
        failed, err = len(bad) * wl.jobs_per_op, 0.0
    return failures, min(failed, len(results) * wl.jobs_per_op), err


def resume_solves(wl) -> tuple[object, int]:
    """A second pass over the now-complete journal and how many eigensolves
    it ran — the contract is zero."""
    import repro.serve.service as service

    tracer = Tracer()
    tracer.patch_function(service.execute_payload, "serve.execute")
    try:
        resumed = wl.resume()
    finally:
        tracer.unpatch()
    return resumed, len(tracer.spans)


def plain_leg(wl, args) -> dict:
    walls, results = timed_calls(wl.op, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, failed, err = checked(wl, results, full=args.leg == 0)
    if wl.durable:
        resumed, solves = resume_solves(wl)
        if solves:
            failures.append(f"resume over a complete journal ran {solves} solves")
        if wl.digest(resumed) != wl.digest(results[-1]):
            failures.append("resumed pass differs from the journaled pass")
    return {
        "walls": [w / wl.jobs_per_op for w in walls], "rss_mb": rss_mb,
        "sim": wl.sim(results[-1]), "attempted": len(walls) * wl.jobs_per_op,
        "failed": failed, "failures": failures, "spectrum_err": err,
    }


def traced_leg(wl, args) -> dict:
    from repro.bench import charging_workload
    from repro.bsp.machine import BSPMachine

    values = {m.name: 0.0 for m in registry.PER_LAYER}
    failures: list[str] = []

    # untraced: the overhead base, and everything measured once
    if wl.observed:
        def plain_then_observed():
            t0 = time.perf_counter()
            wl.op(observed=False)
            t1 = time.perf_counter()
            gc.collect()
            t2 = time.perf_counter()
            wl.op()
            return t1 - t0, time.perf_counter() - t2

        _, pairs = timed_calls(plain_then_observed, args.seconds * UNTRACED_SHARE)
        base = [o for _, o in pairs]
        values["observe.overhead_x"] = statistics.median(o / p for p, o in pairs)
        values["observe.plain_wall_s"] = statistics.median(p for p, _ in pairs)
    else:
        base, _ = timed_calls(wl.op, args.seconds * UNTRACED_SHARE)
    values["host.calib_s"] = calibration()
    machine = BSPMachine(512)
    t0 = time.perf_counter()
    charging_workload(machine, 100)
    values["bsp.charging_p512_s"] = time.perf_counter() - t0
    if wl.name == "chase_large":
        values["eig.w_ratio_2d"] = wl.reference.cost.words / wl.op(delta=0.5).cost.words
    if wl.serve:
        from repro.serve import TuningCache

        values["serve.planner.cold_plan_s"] = wl.cold_plan_s
        loads = []
        for _ in range(5):
            t0 = time.perf_counter()
            TuningCache(wl.cache_path)
            loads.append(time.perf_counter() - t0)
        values["serve.cache_load_s"] = statistics.median(loads)

    # traced
    tracer = Tracer()
    layers.install(tracer)
    walls: list[float] = []
    resume_walls: list[float] = []

    def traced_call():
        tracer.op = len(walls)
        t0 = time.perf_counter()
        try:
            with tracer.span(layers.ROOT_LAYER, "op"):
                result = wl.op()
        finally:
            tracer.op = -1                  # what follows is not part of the op
        walls.append(time.perf_counter() - t0)
        if wl.durable:
            values["serve.journal.bytes"] = float(wl.journal_path.stat().st_size)
            t0 = time.perf_counter()
            resumed = wl.resume()
            resume_walls.append(time.perf_counter() - t0)
            if wl.digest(resumed) != wl.digest(result):
                failures.append("resumed pass differs from the journaled pass")
        return result

    try:
        _, results = timed_calls(traced_call, args.seconds * (1 - UNTRACED_SHARE))
    finally:
        tracer.unpatch()
    if resume_walls:
        values["serve.resume_s"] = statistics.median(resume_walls)

    # wl.check ties every traced result to the untraced warm-up op bit for
    # bit: the wrappers did not push the solver off its batched path
    more, failed, err = checked(wl, results, full=True)
    failures += more

    values.update(layers.layer_metrics(tracer, len(walls)))
    values.update(layers.stage_metrics(wl.stage_entries(results[-1])))
    values["spectrum_err"] = err
    values["trace.overhead_x"] = statistics.median(walls) / statistics.median(base)
    if wl.serve:
        rep = results[-1]
        res = rep.resilience
        values.update({
            "serve.planner.hit_rate": rep.plan_hit_rate,
            "serve.trials": float(res["trials"]),
            "serve.memo_hit_rate": 1.0 - values["serve.solves"] / res["trials"],
            "serve.retries": float(res["retries"]),
            "serve.hedges": float(res["hedges"]),
            "serve.hedge_win_rate": res["hedge_wins"] / res["hedges"] if res["hedges"] else 0.0,
            "serve.degraded_share": res["dispositions"]["degraded"] / rep.jobs,
        })
    write_spans(tracer, wl.name, args.seed)
    return {
        "layer": {m.name: float(values[m.name]) for m in registry.PER_LAYER},
        "attempted": len(walls) * wl.jobs_per_op, "failed": failed,
        "failures": failures, "spectrum_err": err,
    }


def write_spans(tracer: Tracer, name: str, seed: int) -> None:
    """Spans of the last timed call, columnar, for offline inspection."""
    last = max((s[OP] for s in tracer.spans if s is not None), default=-1)
    rows = [s for s in tracer.spans if s is not None and s[OP] == last]
    cols = list(zip(*rows)) if rows else [[]] * 5
    OUT.mkdir(parents=True, exist_ok=True)
    np.savez(
        OUT / f"spans-{name}-seed{seed}.npz",
        target=np.asarray(cols[0], dtype=np.int32), start=np.asarray(cols[1]),
        end=np.asarray(cols[2]), parent=np.asarray(cols[3], dtype=np.int64),
        layers=np.asarray([t[0] for t in tracer.targets]),
        names=np.asarray([t[1] for t in tracer.targets]),
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(registry.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--leg", type=int, default=0,
                    help="leg 0 runs the full output checks; later legs are "
                         "tied to it through the outcome digest")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(args.seed, tmp)
        setup_s = time.perf_counter() - T0
        env = environment()
        record = traced_leg(wl, args) if args.trace else plain_leg(wl, args)
        env["loadavg_end"] = list(os.getloadavg())
        record.update(setup_s=setup_s, digest=wl.digest(wl.reference),
                      descriptor=wl.descriptor(), env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
