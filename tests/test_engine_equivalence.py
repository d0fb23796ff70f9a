"""Bit-identity of the counter store with its scalar oracle.

:class:`repro.bsp.counters.CounterArray` — the one store ``src/`` has — must
produce cost reports **bit-identical** to the Python-loop store it replaced
(``tests/scalar_oracle.py``) — per rank, not just in aggregate — for every
charging path: collectives, batched entry points, sharded kernels, memory
tracking, the deferred charge log, and a full eigensolver run, on all three
machine classes.  Both stores receive the identical pre-computed charge
values, so any difference is a store bug, never float noise.

Also covers the :class:`~repro.bsp.group.RankGroup` index/position caches
the store relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup, collectives, pattern
from repro.bsp.batch import ChargeLog
from repro.bsp.counters import COUNTER_FIELDS, CounterArray
from repro.bsp.kernels import sharded_axpy, sharded_dot, sharded_matvec
from repro.dist.grid import ProcGrid
from repro.faults import SCENARIOS, FaultPlan, FaultyMachine
from repro.lint.verify import VerifiedMachine
from tests.scalar_oracle import ScalarCounterStore, machine_on, scalar_delta, scalar_store

#: the three machine classes, each built the way its users build it (the
#: ``clean`` plan never fires, so a pair of machines may share it)
MACHINE_CLASSES = {
    "plain": (BSPMachine, {}),
    "verified": (VerifiedMachine, {"memory_bound_words": 1e9}),
    "faulty": (FaultyMachine, {"plan": FaultPlan(SCENARIOS["clean"], seed=4)}),
}


def both_machines(
    p: int, cls: type[BSPMachine] = BSPMachine, **kwargs
) -> tuple[BSPMachine, BSPMachine]:
    return machine_on("array", p, cls, **kwargs), machine_on("scalar", p, cls, **kwargs)


def assert_identical(array_m: BSPMachine, scalar_m: BSPMachine) -> None:
    """Reports and every per-rank counter must match bit-for-bit."""
    ra, rs = array_m.cost(), scalar_m.cost()
    for name in (
        "p",
        "flops",
        "words",
        "mem_traffic",
        "supersteps",
        "total_flops",
        "total_words",
        "total_mem_traffic",
        "peak_memory_words",
    ):
        assert getattr(ra, name) == getattr(rs, name), name
    for fname in COUNTER_FIELDS:
        av = array_m.counters.field_array(fname)
        sv = scalar_m.counters.field_array(fname)
        assert np.array_equal(av, sv), f"per-rank {fname} differs"


def run_on_both(p, workload, cls=BSPMachine, **kwargs):
    ma, ms = both_machines(p, cls, **kwargs)
    workload(ma)
    workload(ms)
    assert_identical(ma, ms)
    return ma, ms


# ------------------------------------------------------------------ #
# engine selection: ``src/`` has one store; only the oracle helper swaps it

def test_engine_selection_and_store_types():
    """The comparisons below are not vacuous: the helper really builds each
    machine class on the scalar store, and leaves ``src/`` as it found it."""
    for cls, kwargs in MACHINE_CLASSES.values():
        ma, ms = both_machines(4, cls, **kwargs)
        assert type(ma) is cls and type(ms) is cls
        assert isinstance(ma.counters, CounterArray)
        assert isinstance(ms.counters, ScalarCounterStore)
        assert ms.spans._store is ms.counters  # observers were wired to the oracle
        assert isinstance(cls(4, **kwargs).counters, CounterArray)  # patch undone
        assert not hasattr(ma, "engine")


def test_scalar_store_block_covers_code_that_builds_its_own_machine():
    with scalar_store():
        machine = VerifiedMachine.for_problem(4, 16, 0.5)
    assert isinstance(machine.counters, ScalarCounterStore)
    assert isinstance(VerifiedMachine.for_problem(4, 16, 0.5).counters, CounterArray)


def test_unknown_engine_rejected():
    """There is no engine to name any more: the constructors take no
    ``engine`` argument at all (``tests/test_knobs.py`` pins the signature)."""
    for cls, kwargs in MACHINE_CLASSES.values():
        with pytest.raises(TypeError, match="engine"):
            cls(4, engine="scalar", **kwargs)
    with pytest.raises(ValueError, match="unknown engine"):
        machine_on("gpu", 4)


# ------------------------------------------------------------------ #
# collectives, and the wire shapes the machine charges directly

COLLECTIVE_CASES = [
    lambda m: collectives.bcast(m, m.world, 144.0),
    lambda m: collectives.bcast(m, m.world, 144.0, root=5),
    lambda m: m.charge_comm_batch(m.world, 70.0, 70.0, pattern=pattern.halves(8)),
    lambda m: collectives.allreduce(m, m.world, 96.0),
    lambda m: m.charge_comm_batch(m.world, 56.0, 56.0, pattern=pattern.uniform(8)),
    lambda m: m.charge_comm_batch(
        m.world, 12.0, 12.0, pattern=pattern.grid_row(ProcGrid(m, (2, 2, 2)))),
    lambda m: m.charge_comm([0, 1, 3, 4, 5, 6, 7], 10.0, 2, 70.0, pattern=pattern.fan_in(7)),
    lambda m: m.charge_comm(
        6, 70.0, [0, 1, 2, 3, 4, 5, 7], 10.0, pattern=pattern.explicit((1, 7), [0] * 7, range(7))),
    lambda m: m.charge_comm(
        [0, 1, 2], [5.0, 3.0, 11.0], [1, 0, 7], [5.0, 3.0, 11.0], pattern=pattern.pairs(3)),
    lambda m: m.charge_comm(0, 42.0, 7, 42.0, pattern=pattern.pairs(1)),
]


@pytest.mark.parametrize("workload", COLLECTIVE_CASES)
def test_collectives_identical(workload):
    run_on_both(8, workload)


def test_collectives_on_subgroups_identical():
    def workload(m):
        for grp in m.world.split(4):
            collectives.bcast(m, grp, 33.0)
            collectives.allreduce(m, grp, 17.0)
            m.charge_comm_batch(grp, 9.0, 9.0, pattern=pattern.tree_level(grp.size, 0))
        m.superstep(m.world)

    run_on_both(16, workload)


def test_alltoall_matrix_identical():
    mat = np.fromfunction(lambda i, j: (3.0 * i + j) % 5.0, (8, 8))

    def workload(m):
        m.charge_comm_matrix(m.world, mat)

    ma, ms = run_on_both(8, workload)
    # and it matches the entry-form charge of the same transfers
    md = BSPMachine(8)
    src, dst = np.nonzero(mat * (1 - np.eye(8)))
    words = mat[src, dst]
    md.charge_comm(src, words, dst, words, pattern=pattern.pairs(src.size))
    assert md.cost().words == ma.cost().words
    assert md.cost().supersteps == ma.cost().supersteps


# ------------------------------------------------------------------ #
# batched entry points

def test_charge_flops_batch_identical():
    weights = np.linspace(0.5, 4.0, 8)
    run_on_both(8, lambda m: m.charge_flops_batch(m.world, weights))


def test_charge_comm_batch_scalar_and_array_identical():
    sends = np.arange(8, dtype=np.float64)

    def workload(m):
        m.charge_comm_batch(m.world, 6.0, 6.0, pattern=pattern.uniform(8))
        m.charge_comm_batch(m.world, sends, sends[::-1].copy(), pattern=pattern.uniform(8))
        m.charge_comm_batch(m.world, None, 2.0, pattern=pattern.explicit((0, 8), [], []))

    run_on_both(8, workload)


def test_charge_comm_matrix_identical():
    mat = np.fromfunction(lambda i, j: np.abs(i - j) * 1.5, (6, 6))
    run_on_both(8, lambda m: m.charge_comm_matrix(m.world.take(6), mat))


def test_duplicate_rank_iterables_accumulate_identically():
    # Arbitrary iterables may repeat ranks; both stores must double-charge.
    def workload(m):
        m.charge_flops([0, 1, 1, 2, 0], 2.0)
        m.mem_stream_group([3, 3, 3], 1.5)
        m.superstep([0, 0, 1])
        m.note_memory([2, 2], 10.0)

    ma, _ = run_on_both(4, workload)
    assert ma.counters.field_array("flops")[1] == 4.0
    assert ma.counters.field_array("mem_traffic")[3] == 4.5
    assert ma.counters.field_array("supersteps")[0] == 2


def test_memory_tracking_identical():
    def workload(m):
        m.note_memory(m.world, 50.0)
        m.note_memory(m.world.take(2), 80.0)
        m.note_memory(3, 10.0)  # below current peak: no effect

    ma, _ = run_on_both(4, workload)
    peaks = ma.counters.field_array("peak_memory_words")
    assert peaks[0] == 80.0 and peaks[3] == 50.0


def test_cache_traffic_identical():
    def workload(m):
        for r in range(m.p):
            m.mem_read(r, "A", 100.0)
            m.mem_read(r, "A", 100.0)  # hit: free
        m.mem_stream_group(m.world, 7.0)

    run_on_both(4, workload)


# ------------------------------------------------------------------ #
# sharded kernels and the full driver

def test_sharded_kernels_identical(rng):
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    a = rng.standard_normal((64, 64))

    def workload(m):
        sharded_matvec(m, m.world, a, x)
        sharded_dot(m, m.world, x, y)
        sharded_axpy(m, m.world, 1.5, x, y.copy())

    run_on_both(8, workload)


def test_full_driver_identical():
    """The whole pipeline on every machine class: deferred log on the plain
    and verified machines, write-through on the fault-injecting one.  (The
    pinned n = 96, p = 16 instance runs on both stores under every observer
    in ``test_chase_batch.py::TestPipelineIdentity``.)"""
    from repro.eig import eigensolve_2p5d
    from repro.util.matrices import random_symmetric

    a = random_symmetric(48, seed=7)

    def workload(m):
        eigensolve_2p5d(m, a.copy(), delta=2.0 / 3.0)

    for cls, kwargs in MACHINE_CLASSES.values():
        run_on_both(16, workload, cls, **kwargs)


# ------------------------------------------------------------------ #
# the charge log: deferred flush (``unique=False`` adds) and write-through

def _logged(m: BSPMachine) -> None:
    w = m.world
    log = ChargeLog(m)
    log.charge_flops(w, 2.5)
    log.charge_flops(2, 7.0)
    log.charge_comm(w.take(2), 5.0, RankGroup((2, 3)), 5.0, pattern=pattern.pairs(2))
    log.mem_stream(w.take(3), 11.0)
    log.transfer(w.take(2), RankGroup((1, 2, 3)), 12.0)
    log.superstep(w, 1)
    # a step-indexed schedule: it lands at the flush, in step order, either way
    log.charge_flops(np.array([1, 2, 1]), np.array([0.5, 0.25, 0.125]), step=[1, 0, 0])
    log.charge_comm(np.array([0, 3]), 1.5, np.array([1, 2]), 1.5, step=[1, 0], pattern=pattern.pairs(2))
    log.superstep(np.array([0, 1, 2, 3]), 1, step=[1, 1, 0, 0])
    # raw index arrays with repeated ranks and per-index amounts, no step
    log.charge_flops(np.array([1, 1, 2]), np.array([0.1, 0.2, 0.3]))
    log.charge_comm(np.array([0, 1, 0]), np.array([5.0, 3.0, 0.7]), np.array([2, 2]), 4.35,
                    pattern=pattern.all_to_all(3, 2))
    log.mem_stream(np.array([3, 3]), 0.1)
    log.superstep(np.array([0, 3, 0]), np.array([2, 1, 3], dtype=np.int64))
    if log.deferred:
        log._note.append((np.array([1, 1, 2]), np.array([9.0, 4.0, 6.0])))  # as a tape replay does
    log.flush()


@pytest.mark.parametrize("observers", [{}, {"spans": True}, {"metrics": True}])
def test_charge_log_identical(observers):
    """No observer: one deferred flush through the stores' ``unique=False``
    paths.  Spans or metrics on: every append written through at once."""
    ma, _ = run_on_both(4, _logged, **observers)
    assert ChargeLog(ma).deferred is not bool(observers)


# ------------------------------------------------------------------ #
# reports: interval subtraction

def test_report_subtraction_identical():
    """``CostReport.__sub__`` against the scalar engine's per-rank
    ``RankCounters`` differences, on reports from either store."""
    def run(engine):
        m = machine_on(engine, 8)
        collectives.allreduce(m, m.world, 64.0)
        m.note_memory(m.world.take(3), 40.0)
        before = m.cost()
        collectives.bcast(m, m.world, 32.0, root=5)
        m.charge_flops(m.world.take(5), 5.0)
        after = m.cost()
        return after - before, scalar_delta(after, before)

    (da, oracle_a), (ds, oracle_s) = run("array"), run("scalar")
    for delta in (ds, oracle_a, oracle_s):
        assert delta == da  # every aggregate field, exactly
        for name in COUNTER_FIELDS:
            assert np.array_equal(
                delta.per_rank.field_array(name), da.per_rank.field_array(name)
            ), name
    assert isinstance(ds.per_rank, CounterArray)  # one representation


# ------------------------------------------------------------------ #
# RankGroup caching

def test_rankgroup_indices_cached_and_readonly():
    g = RankGroup((3, 1, 4, 1 + 4))
    idx = g.indices()
    assert idx is g.indices()  # memoized: same object every call
    assert idx.dtype == np.int64
    assert idx.tolist() == [3, 1, 4, 5]
    with pytest.raises(ValueError):
        idx[0] = 0  # read-only


def test_rankgroup_min_max_cached():
    g = RankGroup((9, 2, 7))
    assert g.min_rank == 2 and g.max_rank == 9
    assert g.__dict__["_min_rank"] == 2  # cached alongside indices()


def test_rankgroup_positions():
    g = RankGroup((5, 0, 2))
    assert 0 in g and 3 not in g
    assert g.index_of(2) == 2
    with pytest.raises(ValueError, match="not in group"):
        g.index_of(7)


def test_rankgroup_split_groups_cache_independently():
    g = RankGroup(tuple(range(8)))
    parts = g.split(2)
    assert parts[0].indices().tolist() == [0, 1, 2, 3]
    assert parts[1].indices().tolist() == [4, 5, 6, 7]
    assert parts[0].indices() is not g.indices()


def test_machine_group_bounds_check_uses_cache():
    m = BSPMachine(4)
    with pytest.raises(ValueError, match="out of range"):
        m.charge_flops(RankGroup((0, 4)), 1.0)
    with pytest.raises(ValueError, match="out of range"):
        m.charge_flops(RankGroup((-1, 0)), 1.0)
