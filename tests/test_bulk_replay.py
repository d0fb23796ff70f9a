"""The bulk flush of a charge log against the per-point oracle.

:meth:`ChargeLog.flush <repro.bsp.batch.ChargeLog.flush>` lands a log's
fields once and hands the span recorder and the metrics collector every
ordering point in one call each, with the counter state at each point
taken from exact per-rank running sums; a fault-injecting machine's log
draws at each barrier first and lands nothing past one that raises.
``tests/replay_oracle.py`` keeps the landing it replaced: land up to each
point, fire that point's hook or draw.  The contract is byte-identity with
the oracle — per-rank counters; span events, buckets, calls, chronological
sums and ``verify_attribution()``; the metrics snapshot (matrices, mirrors,
``unpaired_*``, watermarks, series); the fault draws and the outcome — over
whole solves (full-to-band, band-to-band and CA-SBR) with a cold and a warm
tape cache, on spans-only, metrics-only and both, a verifying machine and a
fault-injecting one; and O(1) observer calls per flush instead of O(points).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.blocks.matmul import carma_matmul
from repro.blocks.rect_qr import rect_qr
from repro.bsp import batch
from repro.bsp.batch import ChargeLog, KernelTape
from repro.bsp.counters import COUNTER_FIELDS
from repro.bsp.pattern import all_to_all
from repro.eig import eigensolve_2p5d
from repro.faults import FaultPlan, FaultyMachine
from repro.faults.errors import FaultError
from repro.faults.plan import SCENARIOS
from repro.lint.verify import VerifiedMachine
from repro.metrics import collector
from repro.util.lru import ByteLRU
from repro.util.matrices import random_symmetric
from tests import replay_oracle
from tests.conftest import make_machine

#: (n, p, δ): the two n = 96 grids, the benchmark's observed solve, and a
#: ragged n that leaves a short last panel
CONFIGS = [(96, 16, 0.5), (96, 16, 2.0 / 3.0), (256, 64, 2.0 / 3.0), (37, 8, 2.0 / 3.0)]

OBSERVERS = {
    "spans": {"spans": True},
    "metrics": {"metrics": True},
    "both": {"spans": True, "metrics": True},
    "verified": {"spans": True, "metrics": True},
    "faulty": {"spans": True, "metrics": True},
}

#: the fault-injecting machine's plan: its rank failure fires inside
#: CA-SBR's step-indexed block at n = 96, p = 16, δ = ½
FAULT_PLAN = ("chaos", 11)


def _observed_machine(mode: str, p: int):
    if mode == "verified":
        return VerifiedMachine(p, **OBSERVERS[mode])
    if mode == "faulty":
        return FaultyMachine(p, **OBSERVERS[mode], plan=FaultPlan(SCENARIOS[FAULT_PLAN[0]], FAULT_PLAN[1]))
    return make_machine(p, **OBSERVERS[mode])


def _ids(config) -> str:
    n, p, delta = config
    return f"n{n}_p{p}_d{delta:.3f}"


def _bytes(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def observed(machine) -> dict:
    """Everything a machine's counters and observers expose, as bytes."""
    out = {"counters": [_bytes(machine.counters.field_array(f)) for f in COUNTER_FIELDS]}
    spans = machine.spans
    if spans.enabled:
        out["attribution"] = spans.verify_attribution()
        out["events"] = [json.dumps(e.as_dict(), sort_keys=True) for e in spans.events]
        out["buckets"] = [(path, _bytes(b)) for path, b in spans._buckets.items()]
        out["calls"] = list(spans._calls.items())
        out["chron"] = _bytes(spans._chron)
        out["open"] = spans.open_paths()
    metrics = machine.metrics
    if metrics.enabled:
        snap = metrics.snapshot(machine.counters)
        for f in fields(snap):
            value = getattr(snap, f.name)
            if f.name == "series":
                value = [(repr(t), _bytes(mem), _bytes(sent)) for t, mem, sent in value]
            elif isinstance(value, np.ndarray):
                value = _bytes(value)
            out[f"metrics.{f.name}"] = value
        out["stride"] = metrics._stride
    return out


def _solve(config, mode: str) -> dict:
    n, p, delta = config
    machine = _observed_machine(mode, p)
    try:
        outcome = eigensolve_2p5d(machine, random_symmetric(n, seed=3), delta=delta).eigenvalues.tobytes()
    except FaultError as exc:
        outcome = repr(exc)
    out = observed(machine)
    out["outcome"] = outcome
    if mode == "faulty":
        out["faults"] = (machine.plan.draws, machine.plan.events, machine.faults.recoveries)
    return out


@pytest.mark.parametrize("mode", sorted(OBSERVERS))
@pytest.mark.parametrize("config", CONFIGS, ids=_ids)
def test_bulk_replay_equals_the_oracle_cold_and_warm(config, mode, monkeypatch):
    """A whole observed solve: full-to-band's and band-to-band's tapes
    (band-to-band replays ``rect_qr`` inside its open ``chase_qr`` span)
    and CA-SBR's step-indexed block.  A fault-injecting machine runs its
    kernels live and never touches the tape cache."""
    monkeypatch.setattr(batch, "_TAPE_CACHE", ByteLRU(1 << 30))
    with replay_oracle.installed():
        want = _solve(config, mode)
    cache = ByteLRU(1 << 30)
    monkeypatch.setattr(batch, "_TAPE_CACHE", cache)
    for warm in (False, True):
        misses = cache.misses
        assert _solve(config, mode) == want
        assert (cache.misses == misses) == (warm or mode == "faulty")
    if mode == "faulty" and config == (96, 16, 0.5):
        [failure] = [e for e in want["faults"][1] if e.kind == "rank_failure"]
        assert failure.span.endswith("/sbr_halve")


def _tape_machine(mode: str, p: int = 16):
    machine = _observed_machine(mode, p)
    machine.charge_flops(machine.world, 3.0)  # a live store the replay must seed from
    machine.charge_comm_batch(machine.world, 1.0 / 3.0, 1.0 / 3.0, pattern=all_to_all(p, p))
    machine.superstep()
    return machine


def _replay_in_open_span(mode: str, kernel, operands, oracle: bool) -> dict:
    machine = _tape_machine(mode)
    group = machine.world.take(8)
    log = ChargeLog(machine)
    tape = KernelTape(log)._record(kernel, group, *operands, charge_redistribution=False)
    with machine.span("outer", group=group):
        machine.charge_flops(group, 0.1)  # charged before the replay, in the open span
        _land_tape(log, tape, oracle)
        machine.charge_flops(group, 0.7)
    return observed(machine)


def _land_tape(log: ChargeLog, tape, oracle: bool) -> None:
    """Replay ``tape`` into ``log`` and flush it, landing through the
    oracle or the bulk path (a fault-injecting machine lands at the
    replay)."""
    with replay_oracle.installed() if oracle else contextlib.nullcontext():
        log.replay(tape)
        log.flush()


@pytest.mark.parametrize("mode", sorted(OBSERVERS))
@pytest.mark.parametrize("kernel", ["rect_qr", "carma_matmul"])
def test_a_replay_inside_an_open_span(kernel, mode):
    rng = np.random.default_rng(5)
    if kernel == "rect_qr":
        args = (rect_qr, (rng.standard_normal((96, 12)),))
    else:
        args = (carma_matmul, (rng.standard_normal((24, 40)), rng.standard_normal((40, 16))))
    want = _replay_in_open_span(mode, *args, oracle=True)
    assert _replay_in_open_span(mode, *args, oracle=False) == want


def _replay_rect_qr(machine, oracle: bool):
    log = ChargeLog(machine)
    operands = (np.random.default_rng(3).standard_normal((96, 12)),)
    tape = KernelTape(log)._record(rect_qr, machine.world.take(8), *operands,
                                   charge_redistribution=False)
    _land_tape(log, tape, oracle)
    return tape


@pytest.mark.parametrize("cap", [3, 8])
def test_superstep_samples_cross_the_series_cap_mid_replay(cap, monkeypatch):
    """With a small ``_MAX_SAMPLES`` one replay halves the series and
    doubles the stride several times; both replays decimate alike."""
    monkeypatch.setattr(collector, "_MAX_SAMPLES", cap)
    runs = []
    for oracle in (True, False):
        machine = _tape_machine("both")
        before = machine.metrics._stride
        _replay_rect_qr(machine, oracle)
        runs.append((before, observed(machine)))
    assert runs[0] == runs[1]
    before, got = runs[1]
    assert got["stride"] >= 4 * before and len(got["metrics.series"]) <= cap


def test_full_solve_crosses_the_series_cap(monkeypatch):
    monkeypatch.setattr(collector, "_MAX_SAMPLES", 16)
    with replay_oracle.installed():
        want = _solve((96, 16, 0.5), "metrics")
    assert want["stride"] >= 16
    assert _solve((96, 16, 0.5), "metrics") == want


class _Counting:
    """Forwards every attribute of ``target``; counts the method calls."""

    def __init__(self, target):
        self._target = target
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)

        return call


def test_a_replay_calls_each_observer_once():
    """O(1) observer calls per flush, not O(points)."""
    counted = {}
    for oracle in (True, False):
        machine = _tape_machine("both")
        spans, metrics = _Counting(machine.spans), _Counting(machine.metrics)
        machine.spans, machine.metrics = spans, metrics
        tape = _replay_rect_qr(machine, oracle)
        counted[oracle] = (sum(spans.calls.values()), sum(metrics.calls.values()))
    assert len(tape.points) > 100
    assert counted[False] == (1, 1)
    assert sum(counted[True]) > len(tape.points) // 2
