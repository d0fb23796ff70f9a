"""Pairwise attribution is a memoised pure function, folded lazily — and exact.

:func:`repro.metrics.collector.attribute_flows` fits each distinct wire
pattern once per process and the collector folds the booked patterns into
its accumulators in blocks.  The contract is **bit-identity** with a fresh
fit applied eagerly at every hook (``tests/flow_oracle.py``, the collector's
comm half as it was before the memo): every matrix cell, mirror slot and
unpaired bucket, on both counter engines, whatever the block size, however
warm the memo, and across machines of different ``p`` that share a
rank-relative key.  The byte-capped LRU both process-wide caches sit in is
tested here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp import BSPMachine, RankGroup
from repro.metrics import collector
from repro.metrics.collector import FlowPattern, attribute_flows
from repro.util.lru import ByteLRU
from tests.flow_oracle import ACCUMULATORS, EagerCollector
from tests.scalar_oracle import ENGINES, machine_on


class _Tee:
    """Feeds every metrics hook call to the live collector and the oracle."""

    enabled = True

    def __init__(self, *observers):
        self._observers = observers

    def __getattr__(self, hook):
        def call(*args, **kwargs):
            for observer in self._observers:
                getattr(observer, hook)(*args, **kwargs)

        return call


def _apply(machine: BSPMachine, charge: tuple) -> None:
    kind, *args = charge
    if kind == "comm":
        sends, recvs, pairs = args
        machine.charge_comm(sends=sends, recvs=recvs, pairs=pairs)
    elif kind == "batch":
        ranks, sent, recvd, pairs = args
        group = ranks if isinstance(ranks, int) else RankGroup(tuple(ranks))
        machine.charge_comm_batch(group, sent, recvd, pairs=pairs)
    else:
        ranks, matrix = args
        machine.charge_comm_matrix(RankGroup(tuple(ranks)), matrix)
    machine.superstep()


def _run(p: int, engine: str, charges: list) -> tuple:
    """Apply ``charges`` to a metered machine whose hooks also feed the
    eager oracle; returns ``(machine, live collector, oracle)``."""
    machine = machine_on(engine, p, metrics=True)
    live, oracle = machine.metrics, EagerCollector(p)
    machine.metrics = _Tee(live, oracle)
    for charge in charges:
        _apply(machine, charge)
    return machine, live, oracle


def _assert_identical(live, oracle) -> None:
    for name in ACCUMULATORS:
        got, want = getattr(live, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # bytes: -0.0 != +0.0 here


# --------------------------------------------------------------------- #
# named cases: every branch of the fit


def _named_cases() -> dict[str, list]:
    third = 1.0 / 3.0
    return {
        "disjoint sides, balanced": [("comm", {0: 6.0, 1: 2.0}, {2: 4.0, 3: 4.0}, None)],
        "overlapping sides": [("comm", {0: 5.0, 1: 7.0, 2: 3.0}, {1: 6.0, 2: 4.0, 3: 5.0}, None)],
        "zero marginals": [("comm", {0: 0.0, 1: 9.0, 2: 0.0}, {1: 0.0, 3: 9.0}, None)],
        "one-sided excess (sends)": [("comm", {0: 10.0, 1: 4.0}, {2: 5.0}, None)],
        "one-sided excess (recvs)": [("comm", {0: third}, {1: 5.0, 2: 0.7}, None)],
        "paired share rounds away": [("comm", {0: 180143986.0}, {0: 1e-08, 1: 0.0}, None)],
        "infeasible zero diagonal": [("comm", {1: 10.0}, {1: 5.0, 2: 5.0}, None)],
        "self only": [("comm", {3: 8.0}, {3: 8.0}, None)],
        "empty receive side": [("comm", {0: 2.0, 2: 1.5}, None, None)],
        "empty send side": [("comm", None, {1: 2.0}, None)],
        "all-zero sends": [("comm", {0: 0.0}, {1: 2.0}, None)],
        "exact pairs": [("comm", {0: 3.0, 1: 1.0}, {2: 4.0}, [(0, 2, 3.0), (1, 2, 1.0), (2, 2, 9.0)])],
        "repeated pair": [("comm", {0: 3.0}, {1: 3.0}, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 0.0)])],
        "uniform group": [("batch", [0, 1, 2, 3], 12.0, 12.0, None)],
        "weighted group": [("batch", [3, 1, 2], np.array([1.0, 2.0, 3.0]), np.array([3.0, 0.0, 3.0]), None)],
        "send-only group": [("batch", [0, 2], 4.0, None, None)],
        "single rank": [("batch", 2, 5.0, 3.0, None)],
        "single rank, one side": [("batch", 1, None, 3.0, None)],
        "group with exact pattern": [
            ("batch", [0, 1, 2], np.array([3.0, 0.0, 0.5]), np.array([0.0, 3.5, 0.0]),
             np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        ],
        "transfer matrix": [("matrix", [1, 3, 0], np.array([[9.0, 1.0, 0.0], [2.0, 9.0, third], [0.0, 4.0, 9.0]]))],
        "same slots, many additions": [
            ("comm", {0: 0.1, 1: 1e16}, {1: 0.1, 2: 1e16}, None),
            ("comm", {0: 0.1, 1: 1e16}, {1: 0.1, 2: 1e16}, None),
            ("batch", [0, 1, 2], 1e-8, 1e-8, None),
            ("comm", {1: 3.7}, {1: 1.2, 0: 2.5}, None),
        ],
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(_named_cases()))
def test_named_case_matches_eager_fit(case, engine):
    machine, live, oracle = _run(4, engine, _named_cases()[case])
    _assert_identical(live, oracle)
    assert live.verify_conservation(machine.counters) == []


# --------------------------------------------------------------------- #
# the property: memo + fold == fresh fit applied eagerly

# word counts of a real charge: zero, or between a fraction of a word and 1e9
_WORDS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1.0 / 3.0, 4096.0]),
    st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False),
)


def _ranks(p: int, min_size: int = 0):
    return st.lists(st.integers(0, p - 1), unique=True, min_size=min_size, max_size=p)


@st.composite
def _charge(draw, p: int) -> tuple:
    kinds = ["comm", "comm", "balanced", "pairs", "single"]
    if p >= 2:
        kinds += ["batch", "pattern", "matrix"]
    kind = draw(st.sampled_from(kinds))
    if kind == "comm":  # free marginals: overlap, excess and infeasibility all occur
        sends = {r: draw(_WORDS) for r in draw(_ranks(p))}
        recvs = {r: draw(_WORDS) for r in draw(_ranks(p))}
        return ("comm", sends or None, recvs or None, None)
    if kind == "balanced":  # a window transfer: equal shares, totals agree
        src, dst, words = draw(_ranks(p, 1)), draw(_ranks(p, 1)), draw(_WORDS)
        return ("comm", dict.fromkeys(src, words / len(src)), dict.fromkeys(dst, words / len(dst)), None)
    if kind == "pairs":
        wire = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), _WORDS), max_size=6))
        sends: dict = {}
        recvs: dict = {}
        for src, dst, w in wire:
            if src != dst:
                sends[src] = sends.get(src, 0.0) + w
                recvs[dst] = recvs.get(dst, 0.0) + w
        return ("comm", sends or None, recvs or None, wire)
    if kind == "single":
        return ("batch", draw(st.integers(0, p - 1)), draw(st.none() | _WORDS), draw(st.none() | _WORDS), None)
    ranks = draw(_ranks(p, 2))
    g = len(ranks)
    if kind == "batch":
        def side():
            return draw(st.none() | _WORDS | st.lists(_WORDS, min_size=g, max_size=g).map(np.array))
        return ("batch", ranks, side(), side(), None)
    matrix = np.array(draw(st.lists(_WORDS, min_size=g * g, max_size=g * g))).reshape(g, g)
    if kind == "matrix":
        return ("matrix", ranks, matrix)
    np.fill_diagonal(matrix, 0.0)
    return ("batch", ranks, matrix.sum(axis=1), matrix.sum(axis=0), matrix)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([1, 2, 5, 8]), engine=st.sampled_from(ENGINES),
       fold_at=st.sampled_from([1, 24, 1 << 14]))
def test_memoised_fold_equals_eager_fit(data, p, engine, fold_at):
    charges = data.draw(st.lists(_charge(p), min_size=1, max_size=12))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collector, "_FOLD_ADDITIONS", fold_at)
        machine, live, oracle = _run(p, engine, charges)
        _assert_identical(live, oracle)
        assert live.verify_conservation(machine.counters) == []
        # the same charges again, memo warm: no fit runs, nothing changes
        fits = collector._FLOW_MEMO.misses
        machine, live, _ = _run(p, engine, charges)
        assert collector._FLOW_MEMO.misses == fits
        _assert_identical(live, oracle)
        # reset forgets the pending block along with the folded state
        machine.metrics = live
        _apply(machine, charges[0])
        machine.reset()
        for charge in charges:
            _apply(machine, charge)
        _assert_identical(live, oracle)


# --------------------------------------------------------------------- #
# the memo itself


def test_cached_patterns_are_read_only():
    su, ru = np.array([4, 9, 2]), np.array([9, 5])
    pattern = attribute_flows(su, np.array([3.0, 1.0, 2.0]), ru, np.array([2.0, 4.0]))
    assert isinstance(pattern, FlowPattern)
    assert attribute_flows(su + 1, np.array([3.0, 1.0, 2.0]), ru + 1, np.array([2.0, 4.0])) is pattern
    for array in pattern:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_key_is_relative_overlap_not_absolute_ranks():
    sw, rw = np.array([6.0, 2.0]), np.array([3.0, 5.0])
    disjoint = attribute_flows(np.array([0, 1]), sw, np.array([2, 3]), rw)
    assert attribute_flows(np.array([7, 4]), sw, np.array([1, 0]), rw) is disjoint
    overlapping = attribute_flows(np.array([0, 1]), sw, np.array([1, 3]), rw)
    assert overlapping is not disjoint
    assert attribute_flows(np.array([5, 2]), sw, np.array([2, 9]), rw) is overlapping
    # the same ranks overlapping at another position is another fit
    assert attribute_flows(np.array([0, 1]), sw, np.array([3, 1]), rw) is not overlapping


@pytest.mark.parametrize("engine", ENGINES)
def test_machines_of_different_p_share_patterns_without_cross_talk(engine):
    """One relative key, two machine sizes, different absolute ranks: each
    collector lands the shared pattern on its own cells."""
    fits = []
    for p, shift in ((4, 0), (16, 9), (6, 2)):
        charges = [
            ("comm", {shift: 5.0, shift + 1: 7.0}, {shift + 1: 8.0, shift + 3: 4.0}, None),
            ("batch", [shift + 2, shift, shift + 3], 2.5, 2.5, None),
        ]
        misses = collector._FLOW_MEMO.misses
        machine, live, oracle = _run(p, engine, charges)
        fits.append(collector._FLOW_MEMO.misses - misses)
        _assert_identical(live, oracle)
        assert live.verify_conservation(machine.counters) == []
        assert live.words_matrix.shape == (p, p)
    assert fits[1:] == [0, 0]  # p = 16 and p = 6 replayed what p = 4 fitted


def test_memo_evicts_and_refits_identically(monkeypatch):
    """More distinct patterns than the cap holds: cold ones are evicted,
    refitted on their next use, and every result is unchanged."""
    memo = ByteLRU(4096)
    monkeypatch.setattr(collector, "_FLOW_MEMO", memo)
    charges = [("comm", {0: float(k), 1: 1.0}, {2: 0.5, 3: float(k) + 0.5}, None) for k in range(1, 41)]
    _, live, oracle = _run(4, "array", charges)
    _assert_identical(live, oracle)
    assert memo.misses == 40 and len(memo) < 40 and memo.nbytes <= memo.cap_bytes
    _, live, oracle = _run(4, "array", charges)  # the early shapes are gone by now
    _assert_identical(live, oracle)
    assert memo.misses == 80 and memo.hits == 0
    _, live, oracle = _run(4, "array", charges[-3:] * 2)  # the warm end still hits
    _assert_identical(live, oracle)
    assert memo.misses == 80 and memo.hits == 6


# --------------------------------------------------------------------- #
# ByteLRU


class TestByteLRU:
    def test_evicts_least_recently_used_past_the_cap(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 40)
        lru.put("b", 2, 40)
        assert lru.get("a") == 1  # refreshes a: b is now the cold end
        lru.put("c", 3, 40)
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.nbytes == 80 and len(lru) == 2
        assert lru.get("b") is None
        assert (lru.hits, lru.misses) == (1, 1)

    def test_replacing_a_key_recounts_its_bytes(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 90)
        lru.put("a", 2, 10)
        assert lru.nbytes == 10 and lru.get("a") == 2

    def test_entry_larger_than_the_cap_is_not_retained(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 30)
        lru.put("huge", 2, 101)
        assert len(lru) == 0 and lru.nbytes == 0
