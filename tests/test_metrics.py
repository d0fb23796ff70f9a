"""Tests for the per-rank metrics layer (repro.metrics).

The tentpole invariant is *conservation*: the rank-to-rank word matrix
plus the unpaired (self-addressed) words must reproduce the counter store's
per-rank sent/recv totals, for every collective and named wire pattern,
every sharded kernel, on the live store and on the scalar oracle, and under
injected faults.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup, collectives, pattern
from repro.bsp.machine import NO_METRICS
from repro.dist.grid import ProcGrid
from repro.eig import SOLVERS
from repro.metrics import build_metrics_doc, check_metrics
from repro.model.bounds import memory_bound_words
from repro.util import random_symmetric
from tests import replay_oracle
from tests.scalar_oracle import ENGINES, machine_on


def metered(p: int, engine: str = "array", **kwargs) -> BSPMachine:
    return machine_on(engine, p, metrics=True, **kwargs)


def snap_of(machine: BSPMachine):
    return machine.cost().metrics()


def snapshot_bytes(snap) -> dict:
    """Every field of a metrics snapshot, arrays as (dtype, shape, bytes)."""

    def raw(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, np.ascontiguousarray(value).tobytes()
        if isinstance(value, (list, tuple)):
            return [raw(v) for v in value]
        return repr(value)

    return {f.name: raw(getattr(snap, f.name)) for f in fields(snap)}


def assert_conserved(machine: BSPMachine) -> None:
    problems = machine.metrics.verify_conservation(machine.counters)
    assert problems == [], problems


def group(*ranks) -> RankGroup:
    return RankGroup(tuple(ranks))


# --------------------------------------------------------------------- #
# conservation over every collective


@pytest.mark.parametrize("engine", ENGINES)
class TestCollectiveConservation:
    """Every collective, and every wire shape a charge can name, lands on
    the comm matrix exactly as named and reproduces the counters
    bit-exactly.  (The shapes keep the names of the collectives that once
    charged them.)"""

    def test_bcast(self, engine):
        m = metered(8, engine)
        collectives.bcast(m, group(0, 2, 5, 7), words=801.0, root=5)
        assert_conserved(m)
        s = snap_of(m)
        # the root forwards a share to every other member; nobody self-sends
        assert (np.diag(s.words_matrix) == 0.0).all()
        for r in (0, 2, 7):
            assert s.words_matrix[5, r] == pytest.approx(2 * 801.0 / 4)
            assert s.words_matrix[r, 5] == pytest.approx(801.0 / 4)

    def test_reduce(self, engine):
        """Reduce-scatter over the group, then the shares fan in to the root."""
        m = metered(8, engine)
        g = group(1, 3, 4, 6)
        m.charge_comm_batch(g, 450.0, 450.0, pattern=pattern.uniform(4))
        m.charge_comm([1, 4, 6], 150.0, 3, 450.0, pattern=pattern.fan_in(3))
        assert_conserved(m)
        s = snap_of(m)
        for r in (1, 4, 6):
            assert s.words_matrix[r, 3] == pytest.approx(300.0)
            assert s.words_matrix[3, r] == pytest.approx(150.0)

    def test_allreduce(self, engine):
        m = metered(8, engine)
        collectives.allreduce(m, group(0, 1, 2, 3, 4), words=123.0)
        assert_conserved(m)
        assert snap_of(m).total_messages == 5 * 4

    def test_reduce_scatter(self, engine):
        """Along the rows of a 2×2×2 grid: q − 1 = 1 peer, not p − 1."""
        m = metered(8, engine)
        grid = ProcGrid(m, (2, 2, 2))
        m.charge_comm_batch(grid.group(), 37.0, 37.0, pattern=pattern.grid_row(grid))
        assert_conserved(m)
        s = snap_of(m)
        assert s.total_messages == 8
        assert s.words_matrix[0, 2] == 37.0 and s.words_matrix[0, 1] == 0.0

    def test_allgather(self, engine):
        """Along the fibers of a 2×2×2 grid (its two layers)."""
        m = metered(8, engine)
        grid = ProcGrid(m, (2, 2, 2))
        m.charge_comm_batch(grid.group(), 25.0, 25.0, pattern=pattern.grid_fiber(grid))
        assert_conserved(m)
        s = snap_of(m)
        assert s.words_matrix[0, 1] == 25.0 and s.words_matrix[0, 2] == 0.0

    def test_gather(self, engine):
        m = metered(8, engine)
        m.charge_comm([1, 5], 11.0, 2, 22.0, pattern=pattern.fan_in(2))
        assert_conserved(m)
        s = snap_of(m)
        assert s.words_matrix[1, 2] == 11.0 and s.words_matrix[5, 2] == 11.0
        assert s.words_matrix[2].sum() == 0.0  # the root sends nothing

    def test_scatter(self, engine):
        m = metered(8, engine)
        m.charge_comm(6, 26.0, [0, 3], 13.0, pattern=pattern.all_to_all(1, 2))
        assert_conserved(m)
        s = snap_of(m)
        assert s.words_matrix[6, 0] == 13.0 and s.words_matrix[6, 3] == 13.0
        assert s.words_matrix[:, 6].sum() == 0.0  # the root receives nothing

    def test_alltoall(self, engine):
        m = metered(8, engine)
        m.charge_comm(
            [0, 1, 2], [17.0, 20.0, 5.0], [1, 3, 2, 0], [10.0, 7.0, 20.0, 5.0],
            pattern=pattern.explicit((3, 4), [0, 0, 1, 2], [0, 1, 2, 3], [10.0, 7.0, 20.0, 5.0]),
        )
        assert_conserved(m)
        s = snap_of(m)
        # the named cells, with their weights
        assert s.words_matrix[0, 1] == 10.0 and s.words_matrix[0, 3] == 7.0
        assert s.words_matrix[1, 2] == 20.0 and s.words_matrix[2, 0] == 5.0
        assert s.total_messages == 4

    def test_alltoall_matrix(self, engine):
        m = metered(8, engine)
        g = group(0, 2, 4, 6)
        mat = np.arange(16, dtype=np.float64).reshape(4, 4) * 3.0
        m.charge_comm_matrix(g, mat)
        assert_conserved(m)
        s = snap_of(m)
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        assert s.words_matrix[np.ix_(g.ranks, g.ranks)] == pytest.approx(off)

    def test_p2p(self, engine):
        m = metered(8, engine)
        m.charge_comm(3, 42.0, 5, 42.0, pattern=pattern.pairs(1))
        assert_conserved(m)
        s = snap_of(m)
        assert s.words_matrix[3, 5] == 42.0
        assert s.words_matrix.sum() == 42.0
        assert s.messages_matrix[3, 5] == 1

    def test_every_collective_in_one_run(self, engine):
        m = metered(8, engine)
        collectives.bcast(m, m.world, words=800.0)
        collectives.allreduce(m, group(0, 1, 2), words=90.0)
        m.charge_comm_batch(m.world, 30.0, 30.0, pattern=pattern.halves(8))
        m.charge_comm_batch(group(4, 5, 6), 9.0, 9.0, pattern=pattern.halves(3))
        m.charge_comm_batch(group(1, 3, 5, 7, 0), 8.0, 8.0, pattern=pattern.tree_level(5, 1))
        m.charge_comm([0, 1, 2, 3, 4, 5, 6], 10.0, 7, 70.0, pattern=pattern.fan_in(7))
        m.charge_comm(RankGroup((0, 3)), 6.0, RankGroup((3, 6, 1)), 4.0,
                      pattern=pattern.all_to_all(2, 3))
        m.charge_comm_matrix(group(1, 2), [[0.0, 4.0], [6.0, 0.0]])
        m.charge_comm(7, 3.0, 0, 3.0, pattern=pattern.pairs(1))
        assert_conserved(m)
        s = snap_of(m)
        # the mirror accumulators repeat the store's adds -> bit-exact
        assert np.array_equal(s.sent_words, m.counters.field_array("words_sent"))
        assert np.array_equal(s.recv_words, m.counters.field_array("words_recv"))
        # only named self-cells are unpaired: the odd middle of halves(3)
        # (rank 5), tree level 1's partnerless position 4 (rank 0) and rank
        # 3 shipping a share to itself
        assert s.unpaired_sent.tolist() == [8.0, 0, 0, 2.0, 0, 9.0, 0, 0]
        assert np.array_equal(s.unpaired_recv, s.unpaired_sent)


def test_self_addressed_cells_book_to_unpaired():
    """A cell whose sender and receiver are one rank is that rank's own
    traffic: booked to ``unpaired_*`` on both sides, never dropped."""
    m = metered(4)
    m.charge_comm([0, 1], [3.0, 2.0], [0, 2], [3.0, 2.0], pattern=pattern.pairs(2))
    assert_conserved(m)
    s = snap_of(m)
    assert s.unpaired_sent.tolist() == [3.0, 0.0, 0.0, 0.0]
    assert s.unpaired_recv.tolist() == [3.0, 0.0, 0.0, 0.0]
    assert s.words_matrix[1, 2] == 2.0 and s.words_matrix.sum() == 2.0
    assert s.total_messages == 1


def test_charge_without_a_pattern_raises():
    m = metered(4)
    with pytest.raises(TypeError, match="pattern"):
        m.charge_comm_batch(m.world, 1.0, 1.0)
    with pytest.raises(TypeError, match="wire pattern"):
        m.charge_comm(0, 1.0, 1, 1.0, pattern=None)
    with pytest.raises(ValueError, match="does not fit"):
        m.charge_comm_batch(m.world, 1.0, 1.0, pattern=pattern.uniform(3))


def test_a_mismatched_pattern_is_reported_not_repaired():
    """Words a pattern does not route are a conservation problem, not an
    unpaired residual."""
    m = metered(4)
    both_to_rank_2 = pattern.explicit((2, 2), [0, 1], [0, 0])
    m.charge_comm([0, 1], 5.0, [2, 3], 5.0, pattern=both_to_rank_2)
    problems = m.metrics.verify_conservation(m.counters)
    assert any("column sums" in p for p in problems)
    assert snap_of(m).unpaired_recv.sum() == 0.0


# --------------------------------------------------------------------- #
# every solver charge names a pattern that routes exactly its words


@pytest.mark.parametrize("delta", [0.5, 2.0 / 3.0], ids=["d0.50", "d0.67"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_charge_names_a_consistent_pattern(solver, delta, monkeypatch):
    """Per comm charge of a whole solve: the pattern fits the charged
    entries, its cells stay inside them, and its row / column sums are the
    charged words of each sender / receiver (rtol 1e-12) — so no word is
    dropped and none is invented."""
    from repro.metrics.collector import MetricsCollector, _entries

    checked = []
    hook = MetricsCollector.on_comm

    def on_comm(self, s_idx, s_w, r_idx, r_w, wire):
        (senders, sent), (receivers, recvd) = _entries(s_idx, s_w), _entries(r_idx, r_w)
        assert wire.shape == (senders.size, receivers.size), wire
        rows, cols, share = wire.cells()
        assert rows.size == 0 or (0 <= rows.min() and rows.max() < senders.size
                                  and 0 <= cols.min() and cols.max() < receivers.size)
        words = sent[rows] * share
        np.testing.assert_allclose(np.bincount(rows, words, senders.size), sent, rtol=1e-12)
        np.testing.assert_allclose(np.bincount(cols, words, receivers.size), recvd, rtol=1e-12)
        checked.append(sent.sum())
        hook(self, s_idx, s_w, r_idx, r_w, wire)

    monkeypatch.setattr(MetricsCollector, "on_comm", on_comm)
    a = random_symmetric(96, seed=3)
    m = metered(16)
    # a bulk tape replay books its charges as one block; the per-point
    # replay (tests/replay_oracle.py) issues them one hook call each, so
    # every pattern passes through the check
    with replay_oracle.installed():
        SOLVERS[solver](m, a, delta)
    assert_conserved(m)
    assert sum(checked) == pytest.approx(m.cost().metrics().total_words, rel=1e-12)

    # the same solve on the shipped bulk path conserves the same words and
    # leaves a byte-identical snapshot
    monkeypatch.undo()
    bulk = metered(16)
    SOLVERS[solver](bulk, a, delta)
    assert_conserved(bulk)
    assert sum(checked) == pytest.approx(bulk.cost().metrics().total_words, rel=1e-12)
    assert snapshot_bytes(snap_of(bulk)) == snapshot_bytes(snap_of(m))


# --------------------------------------------------------------------- #
# conservation through the sharded kernels (full eigensolve)


@pytest.mark.parametrize("engine", ENGINES)
def test_eigensolve_conserves(engine):
    from repro import eigensolve_2p5d

    a = random_symmetric(48, seed=1)
    m = metered(8, engine)
    eigensolve_2p5d(m, a)
    assert_conserved(m)


def test_engine_word_matrices_bit_identical():
    from repro import eigensolve_2p5d

    a = random_symmetric(48, seed=1)
    snaps = []
    for engine in ENGINES:
        m = metered(8, engine)
        eigensolve_2p5d(m, a)
        snaps.append(snap_of(m))
    assert np.array_equal(snaps[0].words_matrix, snaps[1].words_matrix)
    assert np.array_equal(snaps[0].messages_matrix, snaps[1].messages_matrix)
    assert np.array_equal(snaps[0].watermark_words, snaps[1].watermark_words)


@pytest.mark.parametrize("engine", ENGINES)
def test_faulty_run_conserves_and_shows_retransmission(engine):
    from repro import eigensolve_2p5d
    from repro.faults import FaultPlan, FaultyMachine
    from repro.faults.plan import SCENARIOS

    a = random_symmetric(48, seed=1)
    clean = metered(8, engine)
    eigensolve_2p5d(clean, a)
    faulty = machine_on(
        engine, 8, FaultyMachine, metrics=True,
        plan=FaultPlan(SCENARIOS["message-drop"], seed=7),
    )
    eigensolve_2p5d(faulty, a)
    assert_conserved(faulty)
    # retransmitted payloads land in the matrix (the _charge closure re-fires)
    assert snap_of(faulty).total_words > snap_of(clean).total_words


# --------------------------------------------------------------------- #
# memory watermarks


@pytest.mark.parametrize("engine", ENGINES)
def test_watermarks_within_model_bound(engine):
    from repro import eigensolve_2p5d

    n, p = 48, 8
    a = random_symmetric(n, seed=1)
    m = metered(p, engine)
    res = eigensolve_2p5d(m, a)
    s = snap_of(m)
    peak = m.counters.field_array("peak_memory_words")
    assert (s.watermark_words <= peak).all()
    assert peak.max() <= memory_bound_words(n, p, res.delta)
    # the watermark superstep indices point inside the run
    assert (s.watermark_superstep >= 0).all()
    assert s.watermark_superstep.max() <= s.supersteps_seen


def test_superstep_series_is_sampled_and_bounded():
    from repro import eigensolve_2p5d

    m = metered(8)
    eigensolve_2p5d(m, random_symmetric(48, seed=1))
    s = snap_of(m)
    assert 0 < len(s.series) <= 2048
    times = [t for t, _, _ in s.series]
    assert times == sorted(times)


# --------------------------------------------------------------------- #
# the disabled path


def test_metrics_disabled_is_shared_noop():
    m = BSPMachine(4)
    assert m.metrics is NO_METRICS
    assert not m.metrics.enabled


def test_metrics_off_report_raises():
    m = BSPMachine(4)
    collectives.bcast(m, m.world, words=10.0)
    with pytest.raises(ValueError, match="no per-rank metrics"):
        m.cost().metrics()


@pytest.mark.parametrize("engine", ENGINES)
def test_metrics_do_not_change_the_cost_report(engine):
    from repro import eigensolve_2p5d

    a = random_symmetric(48, seed=1)
    plain = machine_on(engine, 8)
    r_plain = eigensolve_2p5d(plain, a).cost
    r_metered = eigensolve_2p5d(metered(8, engine), a).cost
    assert r_plain == r_metered  # metrics_data is compare=False; costs equal


# --------------------------------------------------------------------- #
# imbalance statistics


def test_imbalance_ignores_idle_ranks():
    m = metered(8)
    collectives.allreduce(m, group(0, 1, 2, 3), words=100.0)
    report = m.cost()
    # four ranks idle; a naive mean over p=8 would double the ratio
    assert report.imbalance("words") == pytest.approx(1.0)
    assert report.gini("words") == pytest.approx(0.0)


def test_flop_imbalance_alias():
    m = metered(4)
    collectives.allreduce(m, m.world, words=400.0)
    report = m.cost()
    assert report.flop_imbalance == report.imbalance("flops")


def test_imbalance_rejects_unknown_field():
    m = metered(4)
    collectives.bcast(m, m.world, words=10.0)
    with pytest.raises(ValueError):
        m.cost().imbalance("nonsense")


# --------------------------------------------------------------------- #
# the metrics document and its gate


@pytest.fixture(scope="module")
def pinned_doc():
    from repro import eigensolve_2p5d

    n, p = 48, 8
    m = metered(p, spans=True)
    res = eigensolve_2p5d(m, random_symmetric(n, seed=3))
    return build_metrics_doc(res, n, config={"seed": 3})


class TestMetricsDoc:
    def test_attainment_covers_every_stage(self, pinned_doc):
        stages = {e["stage"] for e in pinned_doc["attainment"]}
        assert any("full_to_band" in s for s in stages)
        assert any("finish" in s for s in stages)
        for entry in pinned_doc["attainment"]:
            for comp in ("flops", "words", "supersteps"):
                ratio = entry["ratio"].get(comp)
                assert ratio is None or ratio > 0.0

    def test_doc_is_json_serializable(self, pinned_doc):
        import json

        json.dumps(pinned_doc)

    def test_self_check_passes(self, pinned_doc):
        assert check_metrics(pinned_doc, pinned_doc) == []

    def test_check_flags_attainment_regression(self, pinned_doc):
        import copy

        worse = copy.deepcopy(pinned_doc)
        entry = worse["attainment"][0]
        comp = next(c for c in entry["ratio"] if entry["ratio"][c])
        entry["ratio"][comp] *= 1.5
        (failure,) = check_metrics(worse, pinned_doc)
        assert failure.startswith(f"attainment[0].ratio.{comp}: baseline ")

    # The gate used to be one-sided with a 25 % envelope on attainment and
    # read only two comm totals; each of these four mutations passed it.

    def test_every_attainment_ratio_halved_fails(self, pinned_doc):
        """An *improvement* is drift too: halving every ratio (an
        under-charge looks exactly like this) names every leaf."""
        import copy

        better = copy.deepcopy(pinned_doc)
        halved = []
        for i, entry in enumerate(better["attainment"]):
            for comp, ratio in entry["ratio"].items():
                if ratio:
                    entry["ratio"][comp] = ratio / 2.0
                    halved.append(f"attainment[{i}].ratio.{comp}")
        failures = check_metrics(better, pinned_doc)
        assert halved and [f.split(":")[0] for f in failures] == halved

    def test_one_heat_map_cell_fails(self, pinned_doc):
        import copy

        drifted = copy.deepcopy(pinned_doc)
        cell = drifted["comm"]["words_matrix"][3][5]
        drifted["comm"]["words_matrix"][3][5] = cell + 1000.0
        assert check_metrics(drifted, pinned_doc) == [
            f"comm.words_matrix[3][5]: baseline {cell!r} != fresh {cell + 1000.0!r}"
        ]

    def test_halved_memory_watermark_fails(self, pinned_doc):
        import copy

        drifted = copy.deepcopy(pinned_doc)
        drifted["memory"]["watermark_words"][2] /= 2.0
        (failure,) = check_metrics(drifted, pinned_doc)
        assert failure.startswith("memory.watermark_words[2]: baseline ")

    def test_deleted_ratio_component_fails_in_both_directions(self, pinned_doc):
        import copy

        short = copy.deepcopy(pinned_doc)
        del short["attainment"][1]["ratio"]["words"]
        assert check_metrics(short, pinned_doc) == [
            "attainment[1].ratio.words: in the baseline but missing from this run"
        ]
        assert check_metrics(pinned_doc, short) == [
            "attainment[1].ratio.words: missing from baseline"
        ]

    def test_json_round_trip_of_a_fresh_document_passes(self, pinned_doc):
        """``repro metrics --check`` compares an in-process document against
        a loaded one: tuples vs lists and numpy scalars are not drift."""
        import json

        assert check_metrics(pinned_doc, json.loads(json.dumps(pinned_doc))) == []

    def test_check_flags_memory_bound_violation(self, pinned_doc):
        import copy

        worse = copy.deepcopy(pinned_doc)
        worse["memory"]["max_peak"] = worse["memory"]["model_bound_words"] * 2.0
        failures = check_metrics(worse, pinned_doc)
        assert any("memory watermark exceeds" in f for f in failures)

    def test_check_flags_conservation_problem(self, pinned_doc):
        import copy

        bad = copy.deepcopy(pinned_doc)
        bad["conservation"]["problems"] = ["row sums diverge"]
        failures = check_metrics(bad, pinned_doc)
        assert any("conservation" in f for f in failures)

    def test_check_flags_comm_drift(self, pinned_doc):
        import copy

        drifted = copy.deepcopy(pinned_doc)
        drifted["comm"]["total_words"] *= 1.001
        (failure,) = check_metrics(drifted, pinned_doc)
        assert failure.startswith("comm.total_words: baseline ")

    def test_render_mentions_every_section(self, pinned_doc):
        from repro.metrics import render_metrics

        text = render_metrics(pinned_doc)
        for needle in ("heaviest directed pairs", "per-rank imbalance",
                       "model bound", "bound attainment", "conservation: OK"):
            assert needle in text


# --------------------------------------------------------------------- #
# the per-rank Perfetto exporter


def test_per_rank_trace_has_rank_tracks_and_counters():
    import json

    from repro import eigensolve_2p5d
    from repro.trace import chrome_trace, chrome_trace_per_rank

    m = metered(8, spans=True)
    eigensolve_2p5d(m, random_symmetric(48, seed=1))
    doc = chrome_trace_per_rank(m.spans, metrics=snap_of(m))
    json.dumps(doc)
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    assert {f"rank {r} (1 us = 1 model time unit)" for r in range(8)} <= names
    counters = [e for e in events if e.get("ph") == "C"]
    assert any(e["name"] == "memory_words" for e in counters)
    assert any(e["name"] == "words_sent" for e in counters)
    assert "heatmap" in doc["otherData"] and "memory" in doc["otherData"]
    # the single-track exporter is untouched by the metrics layer
    plain = BSPMachine(8, spans=True)
    eigensolve_2p5d(plain, random_symmetric(48, seed=1))
    assert chrome_trace(plain.spans) == chrome_trace(m.spans)
