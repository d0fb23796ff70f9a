"""The comm matrix books each charge's named pattern, folded lazily — and exact.

A comm charge names its wire pattern (:mod:`repro.bsp.pattern`) and the
collector folds the booked cells into its accumulators in blocks.  The
contract is **bit-identity** with adding every cell at its hook
(``tests/flow_oracle.py``): every matrix cell, mirror slot and unpaired
bucket, on both counter engines, whatever the block size, and across
machines of different ``p`` that share one pattern object.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp import BSPMachine, RankGroup, pattern
from repro.metrics import collector
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
        senders, sent, receivers, recvd, wire = args
        machine.charge_comm(senders, sent, receivers, recvd, pattern=wire)
    elif kind == "batch":
        ranks, sent, recvd, wire = args
        group = ranks if isinstance(ranks, int) else RankGroup(tuple(ranks))
        machine.charge_comm_batch(group, sent, recvd, pattern=wire)
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
# named cases: the charge shapes the metrics layer meets

#: cases whose pattern does not route the charged words (one side booked
#: alone, or a receiver the cells do not reach): conservation must say so
UNBALANCED = {
    "one-sided excess (sends)", "one-sided excess (recvs)", "paired share rounds away",
    "empty receive side", "empty send side", "all-zero sends", "send-only group",
    "single rank, one side",
}


def _named_cases() -> dict[str, list]:
    third = 1.0 / 3.0
    nobody = pattern.explicit((2, 0), [], [])
    return {
        "disjoint sides, balanced": [
            ("comm", [0, 1], [6.0, 2.0], [2, 3], [4.0, 4.0],
             pattern.explicit((2, 2), [0, 0, 1], [0, 1, 1], [4.0, 2.0, 2.0]))],
        "overlapping sides": [("comm", [0, 1, 2], [3.0, 6.0, 3.0], [1, 2, 3], 4.0, pattern.all_to_all(3, 3))],
        "zero marginals": [
            ("comm", [0, 1, 2], [0.0, 9.0, 0.0], [1, 3], [0.0, 9.0],
             pattern.explicit((3, 2), [0, 1, 2], [0, 1, 0]))],
        "one-sided excess (sends)": [("comm", [0, 1], [10.0, 4.0], 2, 5.0, pattern.fan_in(2))],
        "one-sided excess (recvs)": [("comm", 0, third, [1, 2], [5.0, 0.7], pattern.all_to_all(1, 2))],
        "paired share rounds away": [("comm", 0, 180143986.0, [0, 1], [1e-08, 0.0], pattern.all_to_all(1, 2))],
        "infeasible zero diagonal": [("comm", 1, 10.0, [1, 2], 5.0, pattern.all_to_all(1, 2))],
        "self only": [("comm", 3, 8.0, 3, 8.0, pattern.pairs(1))],
        "empty receive side": [("comm", [0, 2], [2.0, 1.5], None, None, nobody)],
        "empty send side": [("comm", None, None, 1, 2.0, pattern.explicit((0, 1), [], []))],
        "all-zero sends": [("comm", 0, 0.0, 1, 2.0, pattern.pairs(1))],
        "exact pairs": [("comm", [0, 1], [3.0, 1.0], 2, 4.0, pattern.fan_in(2))],
        "repeated pair": [("comm", 0, 3.0, 1, 3.0, pattern.explicit((1, 1), [0, 0], [0, 0], [1.0, 2.0]))],
        "uniform group": [("batch", [0, 1, 2, 3], 12.0, 12.0, pattern.uniform(4))],
        "weighted group": [
            ("batch", [3, 1, 2], np.array([1.0, 2.0, 3.0]), np.array([3.0, 0.0, 3.0]),
             pattern.explicit((3, 3), [0, 1, 2], [2, 2, 0]))],
        "send-only group": [("batch", [0, 2], 4.0, None, nobody)],
        "single rank": [("batch", 2, 5.0, 5.0, pattern.uniform(1))],
        "single rank, one side": [("batch", 1, None, 3.0, pattern.explicit((0, 1), [], []))],
        "group with exact pattern": [
            ("batch", [0, 1, 2], np.array([3.0, 0.0, 0.5]), np.array([0.0, 3.5, 0.0]),
             pattern.explicit((3, 3), [0, 2], [1, 1]))],
        "transfer matrix": [("matrix", [1, 3, 0], np.array([[9.0, 1.0, 0.0], [2.0, 9.0, third], [0.0, 4.0, 9.0]]))],
        "same slots, many additions": [
            ("comm", [0, 1], [0.1, 1e16], [1, 2], [0.1, 1e16], pattern.pairs(2)),
            ("comm", [0, 1], [0.1, 1e16], [1, 2], [0.1, 1e16], pattern.pairs(2)),
            ("batch", [0, 1, 2], 1e-8, 1e-8, pattern.uniform(3)),
            ("comm", 1, 3.7, [1, 0], [1.2, 2.5], pattern.explicit((1, 2), [0, 0], [0, 1], [1.2, 2.5])),
        ],
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(_named_cases()))
def test_named_case_matches_eager_fit(case, engine):
    """(Named when a fit split these charges; the oracle is now eager
    addition of the named cells.)"""
    machine, live, oracle = _run(4, engine, _named_cases()[case])
    _assert_identical(live, oracle)
    problems = live.verify_conservation(machine.counters)
    assert bool(problems) == (case in UNBALANCED), problems


# --------------------------------------------------------------------- #
# the property: lazy fold == eager addition

# word counts of a real charge: zero, or between a fraction of a word and 1e9
_WORDS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1.0 / 3.0, 4096.0]),
    st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False),
)


def _ranks(p: int, min_size: int = 0, unique: bool = True):
    return st.lists(st.integers(0, p - 1), unique=unique, min_size=min_size, max_size=p)


@st.composite
def _cells(draw, ns: int, nd: int):
    """An explicit pattern over ``ns`` × ``nd`` entries, repeats allowed."""
    if not ns or not nd:
        return pattern.explicit((ns, nd), [], [])
    cells = draw(st.lists(st.tuples(st.integers(0, ns - 1), st.integers(0, nd - 1), _WORDS), max_size=8))
    src, dst, weights = zip(*cells) if cells else ((), (), ())
    return pattern.explicit((ns, nd), src, dst, weights)


@st.composite
def _charge(draw, p: int) -> tuple:
    kinds = ["comm", "comm", "single"]
    if p >= 2:
        kinds += ["batch", "named", "matrix"]
    kind = draw(st.sampled_from(kinds))
    if kind == "comm":  # entry arrays may repeat a rank; either side may be absent
        senders, receivers = draw(_ranks(p, unique=False)), draw(_ranks(p, unique=False))
        sent = [draw(_WORDS) for _ in senders]
        recvd = [draw(_WORDS) for _ in receivers]
        wire = draw(_cells(len(senders), len(receivers)))
        return ("comm", senders or None, sent or None, receivers or None, recvd or None, wire)
    if kind == "single":
        wire = draw(st.sampled_from([pattern.uniform(1), pattern.pairs(1)]))
        return ("batch", draw(st.integers(0, p - 1)), draw(_WORDS), draw(_WORDS), wire)
    ranks = draw(_ranks(p, 2))
    g = len(ranks)
    if kind == "matrix":
        matrix = np.array(draw(st.lists(_WORDS, min_size=g * g, max_size=g * g))).reshape(g, g)
        return ("matrix", ranks, matrix)
    side = _WORDS | st.lists(_WORDS, min_size=g, max_size=g).map(np.array)
    if kind == "named":
        wire = draw(st.sampled_from([pattern.uniform(g), pattern.halves(g), pattern.tree_level(g, 0),
                                     pattern.grid_lines((1, g), (1,))]))
        return ("batch", ranks, draw(side), draw(side), wire)
    sent, recvd = draw(st.none() | side), draw(st.none() | side)  # an absent side has no entries
    wire = draw(_cells(0 if sent is None else g, 0 if recvd is None else g))
    return ("batch", ranks, sent, recvd, wire)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([1, 2, 5, 8]), engine=st.sampled_from(ENGINES),
       fold_at=st.sampled_from([1, 24, 1 << 14]))
def test_lazy_fold_equals_eager_addition(data, p, engine, fold_at):
    charges = data.draw(st.lists(_charge(p), min_size=1, max_size=12))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collector, "_FOLD_ADDITIONS", fold_at)
        machine, live, oracle = _run(p, engine, charges)
        _assert_identical(live, oracle)
        # reset forgets the pending block along with the folded state
        machine.metrics = live
        _apply(machine, charges[0])
        machine.reset()
        for charge in charges:
            _apply(machine, charge)
        _assert_identical(live, oracle)


# --------------------------------------------------------------------- #
# patterns are shared, relative and read-only


def test_cached_patterns_are_read_only():
    wire = pattern.uniform(5)
    assert pattern.uniform(5) is wire and pattern.grid_lines((5,), (0,)) is wire
    for array in wire.cells():
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_pattern_is_relative_to_the_charged_ranks():
    """One pattern, two rank sets: its cells land on each charge's ranks."""
    cells = {}
    for ranks in ((0, 1, 2, 3), (7, 4, 1, 0)):
        m = machine_on("array", 8, metrics=True)
        m.charge_comm_batch(RankGroup(ranks), 2.0, 2.0, pattern=pattern.halves(4))
        matrix = m.metrics.words_matrix
        cells[ranks] = {(int(i), int(j)) for i, j in zip(*np.nonzero(matrix))}
    assert cells[(0, 1, 2, 3)] == {(0, 2), (2, 0), (1, 3), (3, 1)}
    assert cells[(7, 4, 1, 0)] == {(7, 1), (1, 7), (4, 0), (0, 4)}


@pytest.mark.parametrize("engine", ENGINES)
def test_machines_of_different_p_share_patterns_without_cross_talk(engine):
    """One pattern object, three machine sizes, different absolute ranks:
    each collector lands it on its own cells."""
    for p, shift in ((4, 0), (16, 9), (6, 2)):
        charges = [
            ("comm", [shift, shift + 1], [5.0, 7.0], [shift + 1, shift + 3], [8.0, 4.0],
             pattern.explicit((2, 2), [0, 1, 1], [0, 0, 1], [1.0, 3.0, 4.0])),
            ("batch", [shift + 2, shift, shift + 3], 2.5, 2.5, pattern.uniform(3)),
        ]
        machine, live, oracle = _run(p, engine, charges)
        _assert_identical(live, oracle)
        assert live.verify_conservation(machine.counters) == []
        assert live.words_matrix.shape == (p, p)
        assert live.unpaired_sent[shift + 1] == 3.0  # rank shift+1 ships 3 words to itself
