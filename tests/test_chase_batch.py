"""The chase charge log: schedule arrays, ChargeLog, kernel tapes, one loop.

Algorithm IV.2 has one chase loop, written against
:class:`~repro.bsp.batch.ChargeLog` / :class:`~repro.bsp.batch.KernelTape`.
A log records every append and lands it in one order-preserving flush on
every machine; on an observed machine the flush also hands the span
recorder and the metrics collector the ordering points the log recorded,
and a fault-injecting machine's log lands each append as it is made.  The
contract is **bit-identity** — per rank, on the live store and on the
scalar oracle — between plain and observed machines, between a replayed
tape and the live kernel, and with the per-step chase path this loop
replaced (golden digests captured before it was deleted).  These tests pin
that contract at the unit level (schedule arrays, log, tapes, window
charges), at the stage level (band-to-band and CA-SBR) and at the
full-pipeline level.
"""

from __future__ import annotations

import functools
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.matmul import carma_matmul
from repro.blocks.rect_qr import rect_qr
from repro.bsp import BSPMachine, RankGroup
from repro.bsp import batch
from repro.bsp.batch import _TAPE_CACHE, ChargeLog, FlatTape, KernelTape
from repro.bsp.pattern import all_to_all, fan_in, pairs, uniform
from repro.dist.banded import DistBandMatrix
from repro.eig import eigensolve_2p5d
from repro.eig.band_to_band import band_to_band_2p5d
from repro.eig.ca_sbr import ca_sbr_halve
from repro.eig.schedule import chase_step_arrays, pipeline_schedule
from repro.faults import SCENARIOS, FaultPlan, FaultyMachine
from repro.linalg.sbr import chase_steps
from repro.lint.verify import BSPDisciplineError, VerifiedMachine
from repro.util.lru import ByteLRU
from repro.util.matrices import random_banded_symmetric, random_symmetric

from tests.helpers import per_rank_arrays, report_mismatches
from tests import chase_digests
from tests.scalar_oracle import ENGINES, machine_on

CONFIGS = [
    (32, 8, 4),
    (48, 8, 2),
    (64, 16, 8),
    (65, 16, 8),   # ragged: b does not divide n
    (96, 12, 3),
    (100, 14, 7),  # ragged both ways
]

#: machines that are more than a plain BSPMachine: each observer alone, and
#: the verifier
OBSERVERS = ("spans", "metrics", "verified")


def _machine(p: int, observer: str | None = None, engine: str = "array") -> BSPMachine:
    if observer == "verified":
        return machine_on(engine, p, VerifiedMachine)
    if observer == "faulty-clean":
        return machine_on(engine, p, FaultyMachine, plan=FaultPlan(SCENARIOS["clean"], seed=4))
    return machine_on(engine, p, **({observer: True} if observer else {}))


# ------------------------------------------------------------------ #
# schedule arrays


class TestChaseStepArrays:
    @pytest.mark.parametrize("n,b,h", CONFIGS)
    def test_fields_match_step_enumeration(self, n, b, h):
        arrays = chase_step_arrays(n, b, h)
        steps = list(chase_steps(n, b, h))
        assert len(steps) == arrays["i"].size
        for field in ("i", "j", "oqr_r", "oqr_c", "nr", "ncols", "oup_c", "nc", "ov", "phase"):
            expected = np.array([getattr(s, field) for s in steps], dtype=np.int64)
            assert np.array_equal(arrays[field], expected), field

    @pytest.mark.parametrize("n,b,h", CONFIGS)
    def test_wave_sizes_match_pipeline_schedule(self, n, b, h):
        sizes = np.bincount(chase_step_arrays(n, b, h)["phase"])[1:]
        sched = pipeline_schedule(n, b, h)
        assert sizes.sum() == sum(len(ph.steps) for ph in sched)
        for ph in sched:
            assert sizes[ph.phase - 1] == len(ph.steps)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="need 1 <= h < b < n"):
            chase_step_arrays(32, 8, 8)


# ------------------------------------------------------------------ #
# ChargeLog


def _direct_workload(machine: BSPMachine) -> None:
    w = machine.world
    machine.charge_flops_batch(w, np.linspace(1.0, 2.0, w.size))
    machine.charge_flops(2, 7.0)
    machine.charge_comm([0, 1], [5.0, 3.0], 2, 8.0, pattern=fan_in(2))
    machine.mem_stream(1, 11.0)
    machine.superstep(w, 1)
    machine.superstep([0, 3], 2)


def _logged_workload(machine: BSPMachine) -> None:
    w = machine.world
    log = ChargeLog(machine)
    log.charge_flops(w.indices(), np.linspace(1.0, 2.0, w.size))
    log.charge_flops(2, 7.0)
    log.charge_comm(np.array([0, 1]), np.array([5.0, 3.0]), np.array([2]), 8.0, pattern=fan_in(2))
    log.mem_stream(1, 11.0)
    log.superstep(w.indices(), 1)
    log.superstep(np.array([0, 3]), 2)
    log.flush()


#: one append each, in the forms a log accepts
_APPEND_FORMS = {
    "comm between two ints": lambda log: log.charge_comm(0, 5.0, 1, 5.0, pattern=pairs(1)),
    "flops array": lambda log: log.charge_flops(np.array([1, 1, 2]), np.array([0.1, 0.2, 0.3])),
    "stream array": lambda log: log.mem_stream(np.array([3, 3]), np.array([0.1, 0.7])),
    "comm arrays": lambda log: log.charge_comm(
        np.array([0, 1, 0]), np.array([5.0, 3.0, 0.7]), np.array([2, 2]), 4.35,
        pattern=all_to_all(3, 2)),
    "repeated sender in a step": lambda log: log.charge_comm(
        np.array([0, 0, 2]), np.array([1.0, 2.0, 0.5]), np.array([1, 3, 1]), np.array([1.0, 2.0, 0.5]),
        step=[0, 0, 1], pattern=pairs(3)),
    "superstep counts": lambda log: log.superstep(np.array([0, 3, 0]), np.array([2, 1, 3])),
    "stepped superstep counts": lambda log: log.superstep(
        np.array([0, 3, 0, 1]), np.array([2, 1, 3, 1]), step=[0, 0, 0, 1]),
}


class TestChargeLog:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_flush_matches_direct_charges(self, engine):
        direct = machine_on(engine, 4)
        _direct_workload(direct)
        logged = machine_on(engine, 4)
        _logged_workload(logged)
        assert report_mismatches(direct.cost(), logged.cost()) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_array_superstep_counts(self, engine):
        """Per-entry int64 count arrays (as tapes record them) add like scalars."""
        machine = machine_on(engine, 4)
        log = ChargeLog(machine)
        log.superstep(np.array([0, 1, 1]), np.array([2, 1, 3], dtype=np.int64))
        log.superstep(np.array([3]), 4)
        log.flush()
        ss = machine.counters.field_array("supersteps").tolist()
        assert ss == [2, 4, 0, 4]

    def test_flush_order_preserves_float_accumulation(self):
        """Same per-rank addition order => bit-identical float sums."""
        amounts = [0.1, 1e16, 0.1, -0.0, 3.7, 1e-8]
        direct = BSPMachine(2)
        for a in amounts:
            direct.charge_flops(0, abs(a))
        logged = BSPMachine(2)
        log = ChargeLog(logged)
        for a in amounts:
            log.charge_flops(0, abs(a))
        log.flush()
        assert (
            direct.counters.field_array("flops")[0]
            == logged.counters.field_array("flops")[0]
        )

    def test_negative_amounts_rejected(self):
        machine = BSPMachine(2)
        log = ChargeLog(machine)
        log.charge_flops(0, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            log.flush()
        log = ChargeLog(machine)
        log.charge_comm(np.array([0]), -2.0, np.array([1]), 2.0, pattern=pairs(1))
        with pytest.raises(ValueError, match="nonnegative"):
            log.flush()

    @pytest.mark.parametrize("machine", ["plain", "observed"])
    @pytest.mark.parametrize("case", [
        ("rank -1", lambda log: log.charge_flops(np.array([-1]), np.array([5.0]))),
        ("rank p", lambda log: log.mem_stream(np.array([0, 4]), 1.0)),
        ("receiver p", lambda log: log.charge_comm(0, 1.0, 4, 1.0, pattern=pairs(1))),
        ("stepped rank -2", lambda log: log.charge_flops(np.array([1, -2]), 1.0, step=[0, 1])),
        ("negative supersteps", lambda log: log.superstep(np.array([1]), -1)),
        ("negative stepped supersteps", lambda log: log.superstep(np.array([1, 2]), -1, step=[0, 0])),
    ], ids=lambda case: case[0])
    def test_out_of_range_ranks_and_negative_counts_rejected(self, case, machine):
        """A rank outside [0, p) or a negative superstep count raises at the
        flush on every machine, and nothing of the log lands."""
        m = BSPMachine(4, spans=machine == "observed", metrics=machine == "observed")
        log = ChargeLog(m)
        log.charge_flops(m.world, 1.0)
        case[1](log)
        with pytest.raises(ValueError, match="out of range|nonnegative"):
            log.flush()
        assert m.cost().F == 0 and m.cost().S == 0

    @pytest.mark.parametrize("observed", [False, True])
    def test_step_appends_land_in_step_order(self, observed):
        """A step-indexed schedule lands as the per-step loop charges it:
        per-rank float sums in step order, not field order; on an observed
        machine the observers see the per-step calls in the same order
        (span events and metrics samples included)."""
        kwargs = {"spans": True, "metrics": True} if observed else {}
        owner, qr, mm = [1, 2, 2], [0.5, 1.0, 2.0**53], [0.25, 1.0, 1.0]
        direct = BSPMachine(4, **kwargs)
        with direct.span("chase"):
            for s in range(3):
                direct.charge_flops(owner[s], qr[s])
                direct.charge_flops(owner[s], mm[s])
                direct.mem_stream(owner[s], 3.0)
                if s == 1:  # the bulge crosses from rank 1 to rank 2
                    direct.charge_comm(1, 4.0, 2, 4.0, pattern=pairs(1))
                    direct.superstep(RankGroup((1, 2)), 1)
        logged = BSPMachine(4, **kwargs)
        log = ChargeLog(logged)
        steps = np.arange(3)
        with logged.span("chase"):
            log.charge_flops(np.array(owner), np.array(qr), step=steps)
            log.charge_flops(np.array(owner), np.array(mm), step=steps)
            log.mem_stream(np.array(owner), 3.0, step=steps)
            log.charge_comm(np.array([1]), 4.0, np.array([2]), 4.0, step=[1], pattern=pairs(1))
            log.superstep(np.array([1, 2]), 1, step=[1, 1])
            log.flush()
        flops = logged.counters.field_array("flops")
        assert flops[2] == 2.0**53 + 4  # 1 + 1 + 2**53 + 1; field order would give 2**53
        assert flops.tobytes() == direct.counters.field_array("flops").tobytes()
        assert report_mismatches(direct.cost(), logged.cost()) == []
        if observed:
            assert _observable_state(direct) == _observable_state(logged)

    @pytest.mark.parametrize("form", sorted(_APPEND_FORMS))
    def test_write_through_charges_every_deferred_append_identically(self, form):
        """Whatever a plain machine's log accepts, an observed machine's log
        accepts too and lands on the same counter bytes: int ranks, per-rank
        amount arrays with repeated ranks, a repeated sender within one
        step, per-entry superstep counts."""
        counters = []
        for observed in (False, True):
            machine = BSPMachine(4, spans=observed, metrics=observed)
            machine.charge_flops(machine.world, 0.1)  # prior sums make the order matter
            machine.charge_comm_batch(machine.world, 1e16, 1e16, pattern=uniform(4))
            machine.mem_stream_group(machine.world, 0.1)
            log = ChargeLog(machine)
            _APPEND_FORMS[form](log)
            log.flush()
            counters.append(per_rank_arrays(machine.cost()))
        plain, observed = counters
        assert {k: v.tobytes() for k, v in plain.items()} == {k: v.tobytes() for k, v in observed.items()}

    def test_flush_clears_pending_events(self):
        machine = BSPMachine(2)
        log = ChargeLog(machine)
        log.charge_flops(0, 5.0)
        log.flush()
        log.flush()  # no pending events: must not double-charge
        assert machine.counters.field_array("flops")[0] == 5.0


# ------------------------------------------------------------------ #
# KernelTape


def _observable_state(machine: BSPMachine) -> dict:
    """Everything a spans + metrics machine exposes, comparably."""
    report = machine.cost()
    snap = report.metrics()
    return {
        "spans": [e.as_dict() for e in machine.spans.events],
        "metrics": {
            name: getattr(snap, name).tolist()
            for name in ("words_matrix", "messages_matrix", "sent_words", "recv_words",
                         "unpaired_sent", "unpaired_recv", "watermark_words")
        },
        "supersteps_seen": snap.supersteps_seen,
    }


@pytest.fixture
def recordings(monkeypatch) -> list:
    """A fresh tape cache, and the (group-relative key, charging kwargs) of
    every tape recorded into it."""
    monkeypatch.setattr(batch, "_TAPE_CACHE", ByteLRU(1 << 30))
    seen: list = []
    record = batch._record

    def counted(schedule, params, size, shapes, kwargs):
        seen.append(((schedule.__name__, size, shapes), tuple(sorted(kwargs.items()))))
        return record(schedule, params, size, shapes, kwargs)

    monkeypatch.setattr(batch, "_record", counted)
    return seen


def _scattered(size: int, p: int = 16) -> RankGroup:
    return RankGroup(tuple(int(r) for r in np.random.default_rng(size).permutation(p)[:size]))


#: groups on p = 16: contiguous (not at rank 0), scattered, and one by hand
TAPE_GROUPS = [RankGroup(tuple(range(16 - g, 16))) for g in (1, 2, 3, 5, 8, 16)] + [
    _scattered(g) for g in (2, 3, 5, 8, 16)] + [RankGroup((7, 2, 11, 4))]

#: per kernel: operands and the charging kwargs a tape keys on
TAPE_KERNELS = {
    "rect_qr": (rect_qr, ((64, 8),), [{"delta": d, "charge_redistribution": c}
                                      for d in (0.5, 2.0 / 3.0) for c in (False, True)]),
    "carma": (carma_matmul, ((24, 40), (40, 16)), [{"charge_redistribution": c} for c in (False, True)]
              + [{"memory_words": 200.0}]),
}


class TestKernelTape:
    @pytest.mark.parametrize("kind", sorted(TAPE_KERNELS))
    @pytest.mark.parametrize("group", TAPE_GROUPS, ids=lambda g: "-".join(map(str, g.ranks)))
    def test_group_relative_tape_is_the_live_kernel(self, kind, group, recordings):
        """A tape recorded once per group size on ranks 0 … g−1, from the
        kernel's shape-only schedule, relabeled onto ``group``: the live
        kernel's per-rank costs and, on a spans + metrics machine, its span
        events (rank tuples included), buckets and metrics, byte for byte —
        cold (a relabel of a recording) and warm (the exact-key hit)."""
        kernel, shapes, charging = TAPE_KERNELS[kind]
        rng = np.random.default_rng(group.size)
        operands = tuple(rng.standard_normal(shape) for shape in shapes)
        for kwargs in charging:
            for observed in ({}, {"spans": True, "metrics": True}):
                direct = BSPMachine(16, **observed)
                kernel(direct, group, *operands, **{"charge_redistribution": False, **kwargs})
                for _warm in range(2):
                    m = BSPMachine(16, **observed)
                    log = ChargeLog(m)
                    KernelTape(log).run(kernel, group, operands, **kwargs)
                    log.flush()
                    assert report_mismatches(direct.cost(), m.cost()) == []
                    if observed:
                        assert _observable_state(direct) == _observable_state(m)
        assert len(recordings) == len(charging)

    @pytest.mark.parametrize("kind", sorted(TAPE_KERNELS))
    def test_tape_recorded_on_p8_replays_on_p64(self, kind, recordings):
        """The group-relative key holds no machine size: a tape recorded for
        a p = 8 machine's world replays on an 8-rank group of a p = 64
        machine, as the live kernel there."""
        kernel, shapes, _charging = TAPE_KERNELS[kind]
        rng = np.random.default_rng(0)
        operands = tuple(rng.standard_normal(shape) for shape in shapes)
        small = BSPMachine(8)
        log = ChargeLog(small)
        KernelTape(log).run(kernel, small.world, operands)
        log.flush()
        group = RankGroup((63, 0, 17, 40, 8, 33, 62, 1))
        for observed in ({}, {"spans": True, "metrics": True}):
            direct = BSPMachine(64, **observed)
            kernel(direct, group, *operands, charge_redistribution=False)
            m = BSPMachine(64, **observed)
            log = ChargeLog(m)
            KernelTape(log).run(kernel, group, operands)
            log.flush()
            assert report_mismatches(direct.cost(), m.cost()) == []
            if observed:
                assert _observable_state(direct) == _observable_state(m)
        assert len(recordings) == 1

    def test_a_cold_solve_records_from_shapes_alone(self, recordings, monkeypatch):
        """A tape miss runs no numerics: with the QR numerics the blocks
        import made to raise, a cold n = 256, p = 64, δ = ⅔ solve (its
        full-to-band and band-to-band take every ``rect_qr`` / CARMA charge
        from tapes) still matches the pinned digests of its counters and
        spectrum, and records exactly one tape per group-relative key
        (38, against 129 tapes per exact rank tuple)."""
        def numerics(*args, **kwargs):
            raise AssertionError("a tape recording ran kernel numerics")

        for module, name in (("tsqr", "compact_wy_qr"), ("tsqr", "expand_q"),
                             ("tsqr", "householder_reconstruct"), ("rect_qr", "expand_q"),
                             ("square_qr", "apply_block_reflector_left")):
            monkeypatch.setattr(importlib.import_module(f"repro.blocks.{module}"), name, numerics)
        n, p, delta = 256, 64, 2.0 / 3.0
        machine = BSPMachine(p)
        result = eigensolve_2p5d(machine, random_symmetric(n, seed=3), delta=delta)
        want = json.loads(chase_digests.DATA.read_text())[chase_digests.config_key(n, p, delta)]
        got = {**chase_digests.machine_digests(machine),
               "spectrum": chase_digests._sha([chase_digests._array_bytes(result.eigenvalues)])}
        assert got == {k: want[k] for k in ("counters", "spectrum")}
        assert len(recordings) == len(set(recordings)) == 38

    @pytest.mark.parametrize("kind", ["rect_qr", "carma"])
    def test_replay_matches_direct_kernel(self, kind, rng):
        """A replayed tape is the live kernel: same per-rank costs from the
        flush, and on an observed machine the same spans and metrics."""
        if kind == "rect_qr":
            kernel, operands = rect_qr, (rng.standard_normal((32, 8)),)
        else:
            kernel, operands = carma_matmul, (rng.standard_normal((24, 16)),
                                              rng.standard_normal((16, 8)))
        observed = {"spans": True, "metrics": True}
        for kwargs in ({}, observed):
            direct = BSPMachine(8, **kwargs)
            kernel(direct, direct.world, *operands, charge_redistribution=False)

            replayed = BSPMachine(8, **kwargs)
            log = ChargeLog(replayed)
            KernelTape(log).run(kernel, replayed.world, operands)
            log.flush()
            assert report_mismatches(direct.cost(), replayed.cost()) == []
            if kwargs:
                assert _observable_state(direct) == _observable_state(replayed)

    def test_tape_is_memoized_across_instances(self, rng, recordings):
        """One recording per group-relative key, whichever instance asks:
        each exact rank tuple keeps its relabeled tape, which shares the
        recording's amounts and points."""
        m = BSPMachine(8)
        log = ChargeLog(m)
        operands = (rng.standard_normal((12, 12)), rng.standard_normal((12, 6)))
        head = (repr(m.params), "carma_matmul", ((12, 12), (12, 6)))
        charging = (("charge_redistribution", False),)
        KernelTape(log).run(carma_matmul, m.world, operands)
        first = batch._TAPE_CACHE.get((*head, m.world.ranks, charging))
        KernelTape(log).run(carma_matmul, m.world, operands)
        assert batch._TAPE_CACHE.get((*head, m.world.ranks, charging)) is first
        KernelTape(log).run(carma_matmul, RankGroup((7, 5, 3, 1, 0, 2, 4, 6)), operands)
        base = batch._TAPE_CACHE.get((*head, 8, charging))
        assert isinstance(first, FlatTape) and isinstance(base, FlatTape)
        assert len(recordings) == 1
        assert first.points is base.points
        assert all(e is f is None or e[1] is f[1] for e, f in zip(first.events, base.events))

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("first, second", [
        ({"delta": 0.5}, {"delta": 2.0 / 3.0}),
        ({"charge_redistribution": True}, {"charge_redistribution": False}),
    ], ids=["delta", "charge_redistribution"])
    def test_charging_kwargs_key_their_own_tapes(self, first, second, observed, rng, recordings):
        """``rect_qr``'s ``delta`` (its base-case rank cap) and
        ``charge_redistribution`` change what it charges: the same shapes
        and group record one tape per value, and each replay — cold, then
        warm after the other value's — is a direct call on a fresh machine,
        byte for byte.  ``tag`` is no part of the key."""
        cache = batch._TAPE_CACHE
        kwargs = {"spans": True, "metrics": True} if observed else {}
        a = rng.standard_normal((64, 8))  # p = 8: δ moves the base-case groups

        states = []
        for charging in (first, second, first, second):
            direct = BSPMachine(8, **kwargs)
            rect_qr(direct, direct.world, a, **{"charge_redistribution": False, **charging}, tag="d")
            m = BSPMachine(8, **kwargs)
            log = ChargeLog(m)
            KernelTape(log).run(rect_qr, m.world, (a,), tag=f"t{len(states)}", **charging)
            log.flush()
            assert report_mismatches(direct.cost(), m.cost()) == []
            if observed:
                assert _observable_state(direct) == _observable_state(m)
            states.append(per_rank_arrays(m.cost()))
        # per value: one recording (group-relative key) and its relabeled
        # tape (exact key), both missed once; the warm replays hit
        assert len(recordings) == 2 and {kw for _key, kw in recordings} == {
            tuple(sorted({"charge_redistribution": False, **c}.items())) for c in (first, second)}
        assert len(cache._entries) == 4 and cache.misses == 4 and cache.hits == 2
        assert any(not np.array_equal(states[0][f], states[1][f]) for f in states[0])

    def test_fault_path_forwards_charge_redistribution(self, rng, monkeypatch):
        """A fault-injecting machine runs the kernel live with the caller's
        kwargs: with redistribution charged it is the direct call that
        charges it, and it differs from the one that does not."""
        import repro.faults.abft as abft

        monkeypatch.setattr(abft, "abft_check", lambda *args, **kwargs: None)
        a = rng.standard_normal((64, 8))
        reports = []
        for redistribute in (True, False):
            direct = BSPMachine(8)
            rect_qr(direct, direct.world, a, charge_redistribution=redistribute)
            faulty = FaultyMachine(8, plan=FaultPlan(SCENARIOS["clean"], seed=0))
            log = ChargeLog(faulty)
            KernelTape(log).run(rect_qr, faulty.world, (a,), charge_redistribution=redistribute)
            log.flush()
            assert report_mismatches(direct.cost(), faulty.cost()) == []
            reports.append(faulty.cost())
        assert report_mismatches(*reports) != []

    @pytest.mark.parametrize("observed", [False, True])
    def test_cache_evicts_and_re_records_identically(self, observed, rng, monkeypatch, recordings):
        """More distinct shapes than the byte cap holds: cold tapes are
        evicted and re-recorded on their next use, and every replay still
        equals the live kernel (costs; spans and metrics when observed)."""
        kwargs = {"spans": True, "metrics": True} if observed else {}
        shapes = [(8 * k, 8) for k in range(2, 10)]
        operands = {shape: (rng.standard_normal(shape),) for shape in shapes}

        def replayed(shape) -> BSPMachine:
            m = BSPMachine(8, **kwargs)
            log = ChargeLog(m)
            KernelTape(log).run(rect_qr, m.world, operands[shape], tag="t")
            log.flush()
            return m

        probe = ByteLRU(1 << 30)
        monkeypatch.setattr(batch, "_TAPE_CACHE", probe)
        replayed(shapes[-1])
        cache = ByteLRU(3 * probe.nbytes)  # room for about three of the eight
        monkeypatch.setattr(batch, "_TAPE_CACHE", cache)
        for _sweep in range(2):
            for shape in shapes:
                direct = BSPMachine(8, **kwargs)
                rect_qr(direct, direct.world, *operands[shape], charge_redistribution=False, tag="t")
                m = replayed(shape)
                assert report_mismatches(direct.cost(), m.cost()) == []
                if observed:
                    assert _observable_state(direct) == _observable_state(m)
                assert 0 < cache.nbytes <= cache.cap_bytes
        # each shape fell out before its return: both its keys miss, and it
        # is recorded again
        assert cache.misses == 4 * len(shapes) and cache.hits == 0
        assert len(recordings) == 1 + 2 * len(shapes)
        assert len(cache._entries) < len(shapes)
        replayed(shapes[-1])
        assert cache.hits == 1  # the warm end still replays


# ------------------------------------------------------------------ #
# window charges: plain and observed logs are twins


class TestBatchedWindowCharges:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fetch_and_store_twins_match(self, engine):
        a = random_banded_symmetric(32, 6, seed=5)
        rows, cols = slice(8, 14), slice(4, 10)
        wins, machines = [], []
        for observer in (None, "spans"):
            machine = _machine(8, observer, engine)
            band = DistBandMatrix(machine, a.copy(), 6, machine.world)
            grp = machine.world.take(4)
            log = ChargeLog(machine)
            wins.append(band.fetch_window(log, rows, cols, grp, tag="f"))
            band.charge_store(log, rows, cols, grp)
            assert machine.cost().S == 0  # nothing lands before the flush
            log.flush()
            machines.append(machine)
        assert np.array_equal(*wins)
        assert report_mismatches(machines[0].cost(), machines[1].cost()) == []


# ------------------------------------------------------------------ #
# when a log lands, and which ordering points it records


class TestEngineResolution:
    def test_auto_picks_batched_on_plain_machine(self):
        """A plain machine's log lands nothing before its flush and records
        no ordering points: no observer reads them."""
        m = BSPMachine(4)
        log = ChargeLog(m)
        log.charge_comm(m.world, 1.0, m.world, 1.0, pattern=uniform(4))
        log.superstep(m.world, 1)
        assert m.counters.supersteps.tolist() == [0] * 4 and log._rec.points.size == 0
        log.flush()
        assert m.counters.supersteps.tolist() == [1] * 4

    @pytest.mark.parametrize("observer", ["spans", "metrics"])
    def test_observed_log_lands_at_the_flush(self, observer):
        """Spans and metrics see a log's charges only through its flush: it
        records a point per comm append and per barrier, and one per span
        open or close issued while it holds entries."""
        from repro.bsp.batch import _CLOSE, _COMM, _OPEN, _ROW, _SUPERSTEP

        m = _machine(4, observer)
        log = ChargeLog(m)
        log.charge_flops(m.world, 3.0)
        with m.span("inner"):
            log.charge_comm(m.world, 1.0, m.world, 1.0, pattern=uniform(4))
            log.superstep(m.world, 1)
        assert m.counters.flops.tolist() == [0.0] * 4
        kinds = log._rec.points.view()[::_ROW].tolist()
        assert kinds == ([_OPEN, _COMM, _SUPERSTEP, _CLOSE] if observer == "spans" else [_COMM, _SUPERSTEP])
        log.flush()
        assert m.counters.flops.tolist() == [3.0] * 4
        if observer == "spans":
            assert [e.path for e in m.spans.events] == ["inner"] and m.spans.depth == 0
        else:
            assert m.metrics.supersteps_seen == 1 and m.metrics.sent_words.tolist() == [1.0] * 4

    def test_a_faulty_log_lands_each_append(self):
        """A fault-injecting machine draws at barriers and raises mid-stage:
        its log lands each append at once, a step-indexed block at the
        flush."""
        m = _machine(4, "faulty-clean")
        log = ChargeLog(m)
        log.charge_flops(m.world, 3.0)
        assert m.counters.flops.tolist() == [3.0] * 4
        log.charge_flops(m.world, 1.0, step=np.zeros(4, dtype=np.int64))
        assert m.counters.flops.tolist() == [3.0] * 4
        log.flush()
        assert m.counters.flops.tolist() == [4.0] * 4

    def test_verified_machine_defers_and_verifies_at_flush(self):
        """The verifier's checks are cumulative-state checks: it defers like
        a plain machine and re-checks when the flush lands."""
        m = VerifiedMachine(4)
        log = ChargeLog(m)
        log.charge_comm(m.world.take(2), 5.0, m.world.take(2), 5.0, pattern=uniform(2))
        log.flush()
        assert m.checks_run == 1
        log.charge_comm(m.world.take(1), 5.0, m.world.take(1), 1.0, pattern=pairs(1))  # books one side short
        with pytest.raises(BSPDisciplineError, match="conservation violation at flush"):
            log.flush()


# ------------------------------------------------------------------ #
# stage-level identity: plain vs observed, live store and oracle


def _b2b_run(machine: BSPMachine, n=64, b=8, k=2, seed=9):
    band = DistBandMatrix(machine, random_banded_symmetric(n, b, seed=seed), b, machine.world)
    out = band_to_band_2p5d(machine, band, k=k)
    return machine.cost(), out.data.copy()


def _sbr_run(machine: BSPMachine, n=64, b=8):
    band = DistBandMatrix(machine, random_banded_symmetric(n, b, seed=9), b, machine.world)
    out = ca_sbr_halve(machine, band)
    return machine.cost(), out.data.copy()


class TestStageIdentity:
    @pytest.mark.parametrize("counter_engine", ENGINES)
    def test_band_to_band_batched_is_bit_identical(self, counter_engine):
        ref_cost, ref_data = _b2b_run(_machine(16, None, counter_engine))
        for observer in OBSERVERS:
            cost, data = _b2b_run(_machine(16, observer, counter_engine))
            assert report_mismatches(ref_cost, cost) == [], observer
            assert np.array_equal(ref_data, data), observer

    @pytest.mark.parametrize("counter_engine", ENGINES)
    def test_ca_sbr_batched_is_bit_identical(self, counter_engine):
        ref_cost, ref_data = _sbr_run(_machine(8, None, counter_engine))
        for observer in (*OBSERVERS, "faulty-clean"):
            cost, data = _sbr_run(_machine(8, observer, counter_engine))
            assert report_mismatches(ref_cost, cost) == [], observer
            assert np.array_equal(ref_data, data), observer

    def test_batched_rejected_configs_match_perstep(self):
        """k is validated before any charge, observed or not."""
        a = random_banded_symmetric(32, 6, seed=1)
        for observer in (None, "spans"):
            m = _machine(8, observer)
            band = DistBandMatrix(m, a.copy(), 6, m.world)
            with pytest.raises(ValueError, match="must divide"):
                band_to_band_2p5d(m, band, k=4)
            assert m.cost().S == 0

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.integers(1, 4),
        k=st.integers(2, 3),
        panels=st.integers(2, 6),
        ragged=st.integers(0, 3),
        p=st.sampled_from([2, 4, 6, 8, 16]),
        observer=st.sampled_from(OBSERVERS),
        seed=st.integers(0, 2**16),
    )
    def test_deferred_equals_write_through_property(self, h, k, panels, ragged, p, observer, seed):
        b = h * k
        n = panels * b + ragged + 1
        ref_cost, ref_data = _b2b_run(_machine(p), n, b, k, seed)
        cost, data = _b2b_run(_machine(p, observer), n, b, k, seed)
        assert report_mismatches(ref_cost, cost) == []
        assert np.array_equal(ref_data, data)


# ------------------------------------------------------------------ #
# full-pipeline identity


class TestPipelineIdentity:
    def test_eig_n96_p16_all_engine_pairings_identical(self):
        """The pinned bench case: cost reports and spectra must be
        byte-identical across {array, scalar} x {plain, each observer} — per
        rank, not just aggregate."""
        a = random_symmetric(96, seed=3)
        runs = {}
        for counter_engine in ENGINES:
            for observer in (None, *OBSERVERS):
                m = _machine(16, observer, counter_engine)
                evals = eigensolve_2p5d(m, a.copy(), delta=2.0 / 3.0).eigenvalues
                runs[(counter_engine, observer)] = (m.cost(), evals)
        ref_cost, ref_evals = runs[("array", None)]
        for key, (cost, evals) in runs.items():
            assert report_mismatches(ref_cost, cost) == [], key
            assert np.array_equal(ref_evals, evals), key

    def test_eig_n96_p16_matches_committed_baseline(self):
        """The live pinned cost equals the committed BENCH_engine.json entry
        (the bench CI gate asserts the same; this keeps it tier-1)."""
        from pathlib import Path

        from repro.bench import cost_dict, run_eig

        baseline_path = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
        if not baseline_path.is_file():
            pytest.skip("no committed BENCH_engine.json")
        baseline = json.loads(baseline_path.read_text())
        report, _wall = run_eig()
        assert cost_dict(report) == baseline["cases"]["eig_n96_p16"]["cost"]

    @pytest.mark.parametrize("config", chase_digests.CONFIGS, ids=lambda c: chase_digests.config_key(*c))
    def test_observed_run_reproduces_perstep_golden_digests(self, config):
        """Span events, span buckets, the metrics snapshot and per-rank
        counters all digest to what the deleted per-step path produced (real
        rect_qr / carma calls per step); the spectrum to its re-pinned value
        (see ``tests/chase_digests.py``)."""
        golden = json.loads(chase_digests.DATA.read_text())[chase_digests.config_key(*config)]
        assert chase_digests.observed_run_digests(*config) == golden

    @pytest.mark.parametrize("config", chase_digests.CONFIGS, ids=lambda c: chase_digests.config_key(*c))
    def test_golden_digests_hold_with_a_warm_memo_and_after_reset(self, config):
        """The digests do not depend on what the process has already
        recorded: a repeated observed solve — on a second machine, kernel
        tapes warm — lands on the same bytes."""
        golden = json.loads(chase_digests.DATA.read_text())[chase_digests.config_key(*config)]
        for _ in range(2):
            machine = BSPMachine(config[1], spans=True, metrics=True)
            assert chase_digests.observed_run_digests(*config, machine=machine) == golden

        # an unchanged per-rank memory vector is one shared array, not a copy per sample
        series = machine.cost().metrics().series
        unchanged = [
            (before[1], after[1]) for before, after in zip(series, series[1:])
            if np.array_equal(before[1], after[1])
        ]
        assert len(unchanged) > len(series) // 2
        assert all(before is after for before, after in unchanged)


# ------------------------------------------------------------------ #
# observed runs: artifacts stay exact


class TestObservedRuns:
    def test_faulty_run_runs_live_kernels_and_matches_tape_replay(self, monkeypatch):
        """A fault-injecting machine never replays a tape: every rect_qr /
        carma call runs live on the real operands (injection sites and the
        seeded RNG stream keep their program order).  On the ``clean`` plan
        nothing is injected, so — with the ABFT checksum charges, the one
        cost a fault machine adds by itself, switched off — that live run is
        the oracle for the tapes: it must match a plain machine per rank,
        and its per-span sums must reproduce the global report bit-for-bit."""
        import repro.eig.band_to_band as b2b
        import repro.faults.abft as abft

        monkeypatch.setattr(abft, "abft_check", lambda *args, **kwargs: None)
        calls = []
        for name in ("rect_qr", "carma_matmul"):
            kernel = getattr(b2b, name)
            monkeypatch.setattr(b2b, name, functools.wraps(kernel)(
                lambda *a, _k=kernel, _n=name, **kw: (calls.append(_n), _k(*a, **kw))[1]))
        a = random_banded_symmetric(64, 16, seed=2)  # p·h/n = 2: rect-QR groups of two

        plain = BSPMachine(16)
        band = DistBandMatrix(plain, a.copy(), 16, plain.world)
        band_to_band_2p5d(plain, band, k=2)  # records whatever tapes are missing
        calls.clear()
        plain = BSPMachine(16)
        band = DistBandMatrix(plain, a.copy(), 16, plain.world)
        band_to_band_2p5d(plain, band, k=2)
        assert calls == []  # every kernel came off a tape

        faulty = FaultyMachine(16, plan=FaultPlan(SCENARIOS["clean"], seed=4), spans=True)
        band2 = DistBandMatrix(faulty, a.copy(), 16, faulty.world)
        band_to_band_2p5d(faulty, band2, k=2)
        assert {"rect_qr", "carma_matmul"} <= set(calls)
        assert report_mismatches(plain.cost(), faulty.cost()) == []
        assert np.array_equal(band.data, band2.data)
        bd = faulty.cost().by_span()
        assert bd.open_paths == ()
        assert bd.verify_exact() == []

    def test_span_run_costs_match_unobserved_batched_run(self):
        """Spans change *where* charges are attributed, never their values:
        an observed run and a plain run agree on every counter."""
        a = random_banded_symmetric(48, 8, seed=2)
        observed = BSPMachine(8, spans=True)
        band = DistBandMatrix(observed, a.copy(), 8, observed.world)
        band_to_band_2p5d(observed, band, k=2)

        plain = BSPMachine(8)
        band2 = DistBandMatrix(plain, a.copy(), 8, plain.world)
        band_to_band_2p5d(plain, band2, k=2)
        assert report_mismatches(observed.cost(), plain.cost()) == []
