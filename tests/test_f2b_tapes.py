"""Full-to-band on kernel tapes against the live-kernel oracle.

:func:`repro.eig.full_to_band.full_to_band_2p5d` factors each panel with one
local compact-WY QR and forms line 9's products with plain ``@``; the
``rect_qr`` and ``carma_matmul`` charges Lemma IV.1 prices come from
:class:`~repro.bsp.batch.KernelTape` recordings.  ``tests/f2b_oracle.py``
keeps the stage as it was — every kernel live on the real data.  The
contract: per-rank counters, span events and buckets and the metrics
snapshot byte-identical to the oracle, with a cold and a warm tape cache;
under fault injection the same fault draws, events and detections; the
output band's spectrum within 4·n·ε·‖A‖₂ of the oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.bsp import batch
from repro.dist.grid import ProcGrid, factor_2p5d
from repro.eig.driver import default_initial_bandwidth
from repro.eig.full_to_band import full_to_band_2p5d
from repro.faults import SCENARIOS, FaultPlan, FaultyMachine
from repro.faults.errors import CorruptData
from repro.util.lru import ByteLRU
from repro.util.matrices import random_symmetric
from tests import chase_digests, f2b_oracle

#: (n, p, δ, b); b = None takes the driver's initial band-width.  The last
#: two force a ragged last panel (fewer rows than b below the diagonal block).
CONFIGS = [
    (96, 16, 0.5, None),
    (96, 16, 2.0 / 3.0, None),
    (64, 8, 0.5, None),
    (37, 8, 2.0 / 3.0, None),
    (16, 1, 0.5, None),
    (48, 4, 0.55, None),
    (37, 8, 2.0 / 3.0, 5),
    (64, 8, 0.5, 12),
]


def _ids(config) -> str:
    n, p, delta, b = config
    return f"n{n}_p{p}_d{delta:.3f}" + (f"_b{b}" if b else "")


def _stage(stage, machine: BSPMachine, n: int, delta: float, b: int | None):
    """Run ``stage`` on ``machine`` as the driver does; returns (A, band)."""
    q, c = factor_2p5d(machine.p, delta)
    grid = ProcGrid(machine, (q, q, c), machine.world.take(q * q * c))
    delta_eff = 0.5 if machine.p == 1 else 0.5 * (1.0 + np.log(c) / np.log(machine.p))
    if b is None:
        b = default_initial_bandwidth(n, machine.p, delta_eff)
    a = random_symmetric(n, seed=3)
    return a, stage(machine, grid, a, b)


def _spectrum_gap(a: np.ndarray, band: np.ndarray, want: np.ndarray) -> float:
    """max |λ(band) − λ(want)| in multiples of n·ε·‖A‖₂."""
    scale = a.shape[0] * np.finfo(np.float64).eps * np.abs(np.linalg.eigvalsh(a)).max()
    return float(np.abs(np.linalg.eigvalsh(band) - np.linalg.eigvalsh(want)).max() / scale)


@pytest.fixture
def cold_cache(monkeypatch) -> ByteLRU:
    cache = ByteLRU(1 << 30)
    monkeypatch.setattr(batch, "_TAPE_CACHE", cache)
    return cache


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("config", CONFIGS, ids=_ids)
def test_taped_stage_equals_oracle_cold_and_warm(config, observed, cold_cache):
    n, p, delta, b = config
    kwargs = {"spans": True, "metrics": True} if observed else {}
    oracle = BSPMachine(p, **kwargs)
    a, want = _stage(f2b_oracle.full_to_band_2p5d, oracle, n, delta, b)
    golden = chase_digests.machine_digests(oracle)

    for warm in (False, True):
        misses = cold_cache.misses
        machine = BSPMachine(p, **kwargs)
        _, band = _stage(full_to_band_2p5d, machine, n, delta, b)
        assert chase_digests.machine_digests(machine) == golden
        assert _spectrum_gap(a, band, want) <= 4.0
        if warm:  # every kernel came off a tape: no parallel kernel ran
            assert cold_cache.misses == misses and cold_cache.hits > 0
        else:
            assert cold_cache.misses > 0


def test_forced_band_widths_leave_a_ragged_last_panel():
    """Fewer than b rows below the last diagonal block: the stage factors
    that panel with the local ``compact_wy_qr_general``."""
    for n, _p, _delta, b in CONFIGS:
        if b is not None:
            last = (n - b - 1) // b * b  # the last panel's column offset
            assert 0 < n - last - b < b


@pytest.mark.parametrize("seed", range(6))
def test_kernel_corrupt_faults_match_the_oracle(seed):
    """Under fault injection every kernel runs live on the real operands:
    the fault draws and events, the ABFT detection that stops the stage,
    and the counters, spans and metrics up to it are the oracle's."""
    runs = []
    for stage in (f2b_oracle.full_to_band_2p5d, full_to_band_2p5d):
        plan = FaultPlan(SCENARIOS["kernel-corrupt"], seed=seed)
        machine = FaultyMachine(16, spans=True, metrics=True, plan=plan)
        detected = None
        try:
            _stage(stage, machine, 96, 0.5, None)
        except CorruptData as exc:
            detected = (exc.site, exc.span)
        runs.append((plan.events, plan.draws, detected, chase_digests.machine_digests(machine)))
    assert runs[0] == runs[1]
    assert runs[0][0] and runs[0][2] is not None  # a corruption fired and was caught
