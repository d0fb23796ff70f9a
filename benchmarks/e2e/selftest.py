"""Harness self-test: ``python3 -m pytest benchmarks/e2e/selftest.py``.

Outside ``testpaths``, so the tier-1 suite is unaffected.  Covers the
tracer's arithmetic and patch bookkeeping, the ``--compare`` verdicts, the
``BENCHMARK.json`` ↔ registry agreement, and a short smoke run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare
import metrics as registry
from tracer import END, START, Tracer, aggregate, self_times


class TickClock:
    """Every reading advances time by one: durations count clock reads."""

    def __init__(self):
        self.t = 0

    def __call__(self) -> float:
        self.t += 1
        return float(self.t)


# ------------------------------------------------------------------ tracer


def test_self_times_partition_the_root_and_recursion_counts_once():
    tracer = Tracer(clock=TickClock())
    tracer.op = 0                           # aggregate() keeps timed calls only

    def leaf():
        tracer.clock()                      # one tick of "work"

    leaf = tracer.wrap(leaf, tracer.target("L", "leaf"))

    def rec(depth):                         # carma._rec-style recursion
        leaf()
        if depth:
            rec(depth - 1)
            rec(depth - 1)

    rec = tracer.wrap(rec, tracer.target("R", "rec"))
    with tracer.span("harness", "op"):
        rec(3)

    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[END] - root[START])
    assert min(own) >= 0
    agg = aggregate(tracer)
    outer = tracer.spans[1]                 # the outermost rec call
    calls = 2 ** 4 - 1
    assert agg["R"]["calls"] == calls == agg["L"]["calls"]
    # inclusive time double-counts nested recursion; self time does not
    assert agg["R"]["wall_s"] > outer[END] - outer[START]
    assert agg["R"]["self_s"] + agg["L"]["self_s"] == pytest.approx(
        outer[END] - outer[START])


def test_exception_inside_a_wrapped_call_still_closes_the_span():
    tracer = Tracer(clock=TickClock())

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, tracer.target("L", "boom"))
    with pytest.raises(KeyError):
        with tracer.span("harness", "op"):
            wrapped()
    assert all(s is not None for s in tracer.spans)
    assert tracer._stack == []
    assert tracer.spans[1][3] == 0          # parent is the op root


def test_patch_rebinds_every_alias_and_unpatch_restores_them():
    def f():
        return "f"

    class K:
        def pub(self):
            return "pub"

        def _priv(self):
            return "priv"

    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    other = types.ModuleType("otherpkg")
    mod_a.f = mod_b.alias = other.f = f
    sys.modules.update({"fakepkg.a": mod_a, "fakepkg.b": mod_b, "otherpkg": other})
    priv = K.__dict__["_priv"]
    pub = K.__dict__["pub"]
    try:
        tracer = Tracer()
        assert tracer.patch_function(f, "L", prefix="fakepkg") == 2
        assert tracer.patch_methods(K, "M") == 1
        assert mod_a.f is mod_b.alias and mod_a.f is not f and other.f is f
        assert K.__dict__["_priv"] is priv and K.__dict__["pub"] is not pub
        assert mod_b.alias() == "f" and K().pub() == "pub"
        assert len(tracer.spans) == 2
        tracer.unpatch()
        assert mod_a.f is f and mod_b.alias is f and K.__dict__["pub"] is pub
    finally:
        for name in ("fakepkg.a", "fakepkg.b", "otherpkg"):
            del sys.modules[name]


def test_install_on_the_real_program_is_fully_undone():
    import importlib

    import layers
    import repro.eig

    for row in layers.FUNCTIONS + layers.METHODS:     # load every target's module
        importlib.import_module(row[1])

    def bindings():
        return {
            (name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("repro")
            for attr, value in list(vars(mod).items())
            if callable(value)
        }

    from repro.bsp.machine import BSPMachine

    before = bindings()
    methods = dict(vars(BSPMachine))
    tracer = Tracer()
    assert layers.install(tracer) > 100
    assert BSPMachine.charge_flops is not methods["charge_flops"]
    assert repro.eig.eigensolve_2p5d is not before[("repro.eig", "eigensolve_2p5d")]
    tracer.unpatch()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert dict(vars(BSPMachine)) == methods


# ----------------------------------------------------------------- compare


def _record(workload: str, **values: float) -> dict:
    base = {m.name: 1.0 for m in registry.END_TO_END}
    base.update(values)
    return {"workload": workload,
            "metrics": {k: {"value": v, "unit": "", "q1": v, "q3": v, "n": 1}
                        for k, v in base.items()}}


def _verdicts(a_runs: list[dict], b_runs: list[dict], metric: str) -> str:
    table = compare.rows({"chase_large": a_runs}, {"chase_large": b_runs})
    return next(r["verdict"] for r in table if r["metric"] == metric)


def test_compare_verdicts(tmp_path):
    tight_a = [_record("chase_large", op_wall_s=v) for v in (1.00, 1.01, 1.02)]
    assert _verdicts(tight_a, [_record("chase_large", op_wall_s=v)
                               for v in (1.03, 1.04, 1.05)], "op_wall_s") == "within"
    assert _verdicts(tight_a, [_record("chase_large", op_wall_s=v)
                               for v in (1.30, 1.31, 1.32)], "op_wall_s") == "regressed"
    assert _verdicts(tight_a, [_record("chase_large", op_wall_s=v)
                               for v in (0.60, 0.61, 0.62)], "op_wall_s") == "within"
    noisy_a = [_record("chase_large", op_wall_s=v) for v in (0.8, 1.0, 1.4)]
    noisy_b = [_record("chase_large", op_wall_s=v) for v in (0.9, 1.3, 1.5)]
    assert _verdicts(noisy_a, noisy_b, "op_wall_s") == "unresolved"
    # wide spread but every B run beyond every A run: the data does say
    assert _verdicts(noisy_a, [_record("chase_large", op_wall_s=v)
                               for v in (2.0, 2.5, 3.0)], "op_wall_s") == "regressed"
    # sim metrics compare exactly; "higher is better" flips the sign
    one = [_record("chase_large")]
    assert _verdicts(one, [_record("chase_large", sim_words=1.0 + 1e-6)], "sim_words") == "regressed"
    assert _verdicts(one, [_record("chase_large", sim_words=0.9)], "sim_words") == "within"
    assert _verdicts(one, [_record("chase_large", slo_hit_rate=0.99)], "slo_hit_rate") == "regressed"
    assert _verdicts(one, one, "sim_supersteps") == "within"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": {"chase_large": tight_a}}))
    b.write_text(json.dumps(_record("chase_large", op_wall_s=1.5)))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1


# ----------------------------------------------------- BENCHMARK.json contract


def test_benchmark_json_matches_the_registry_and_the_schema_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == json.loads(json.dumps(registry.benchmark_json()))
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ------------------------------------------------------------------- smoke


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_exactly_the_contracted_metrics(trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "finish_wide",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.perf_counter() - t0 < 30
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = registry.PER_LAYER if trace else registry.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    assert all(v["unit"] == m.unit for v, m in zip(result["metrics"].values(), expected))
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())
