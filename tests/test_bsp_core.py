"""Tests for the BSP machine core: params, counters, machine charging."""

import math

import numpy as np
import pytest

from repro.bsp import BSPMachine, MachineParams, RankGroup
from repro.bsp.params import BANDWIDTH_BOUND, LATENCY_BOUND
from repro.bsp.pattern import explicit, pairs
from tests.scalar_oracle import RankCounters, aggregate


class TestMachineParams:

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MachineParams(beta=-1.0)

    def test_time_formula(self):
        p = MachineParams(gamma=1.0, beta=2.0, nu=3.0, alpha=4.0)
        assert p.time(1, 1, 1, 1) == 10.0

    def test_presets(self):
        assert BANDWIDTH_BOUND.time(100, 7, 100, 100) == 7
        assert LATENCY_BOUND.time(100, 100, 100, 7) == 7


class TestCounters:
    """``RankCounters`` / ``aggregate`` are the scalar oracle's (they left
    ``src/`` with it); the report they build is the ordinary ``CostReport``."""

    def test_words_is_sent_plus_received(self):
        c = RankCounters(words_sent=3.0, words_recv=4.0)
        assert c.words == 7.0

    def test_aggregate_max_and_total(self):
        rep = aggregate(
            [RankCounters(flops=10.0), RankCounters(flops=30.0), RankCounters(flops=20.0)]
        )
        assert rep.flops == 30.0
        assert rep.total_flops == 60.0
        assert rep.p == 3
        assert rep.flop_imbalance == pytest.approx(1.5)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_paper_notation_properties(self):
        rep = aggregate([RankCounters(flops=1, words_sent=2, mem_traffic=3, supersteps=4)])
        assert (rep.F, rep.W, rep.Q, rep.S) == (1.0, 2.0, 3.0, 4)

    def test_subtraction_gives_interval_costs(self):
        m = BSPMachine(2)
        m.charge_flops(0, 10.0)
        snap = m.cost()
        m.charge_flops(1, 100.0)
        delta = m.cost() - snap
        assert delta.flops == 100.0
        assert delta.total_flops == 100.0

    def test_subtraction_rejects_different_machines(self):
        with pytest.raises(ValueError):
            BSPMachine(2).cost() - BSPMachine(3).cost()

    def test_summary_is_one_line(self):
        assert "\n" not in BSPMachine(2).cost().summary()


class TestMachine:
    def test_charge_flops_single_and_group(self):
        m = BSPMachine(4)
        m.charge_flops(1, 5.0)
        m.charge_flops(m.world, 2.0)
        assert m.counters.flops[1] == 7.0
        assert m.counters.flops[0] == 2.0

    def test_charge_comm(self):
        m = BSPMachine(3)
        m.charge_comm(0, 10.0, 2, 10.0, pattern=pairs(1))
        assert m.counters.words_sent[0] == 10.0
        assert m.counters.words_recv[2] == 10.0
        assert m.cost().W == 10.0

    def test_rejects_negative_charges(self):
        m = BSPMachine(2)
        with pytest.raises(ValueError):
            m.charge_flops(0, -1.0)
        with pytest.raises(ValueError):
            m.charge_comm(0, -1.0, None, None, pattern=explicit((1, 0), [], []))

    def test_rejects_bad_rank(self):
        m = BSPMachine(2)
        with pytest.raises(ValueError, match="out of range"):
            m.charge_flops(2, 1.0)

    def test_superstep_group_scoping(self):
        m = BSPMachine(4)
        m.superstep(RankGroup((0, 1)))
        m.superstep()  # whole world
        assert m.counters.supersteps[0] == 2
        assert m.counters.supersteps[3] == 1
        assert m.cost().S == 2

    def test_memory_high_water(self):
        m = BSPMachine(2)
        m.note_memory(0, 100.0)
        m.note_memory(0, 50.0)  # lower does not reduce the peak
        assert m.counters.peak_memory_words[0] == 100.0

    def test_mem_read_hits_after_first_touch(self):
        m = BSPMachine(1)
        m.mem_read(0, "A", 100.0)
        m.mem_read(0, "A", 100.0)
        assert m.counters.mem_traffic[0] == 100.0  # second access is a hit

    def test_mem_stream_always_charges(self):
        m = BSPMachine(1)
        m.mem_stream(0, 10.0)
        m.mem_stream(0, 10.0)
        assert m.counters.mem_traffic[0] == 20.0

    def test_small_cache_causes_repeat_misses(self):
        m = BSPMachine(1, MachineParams(cache_words=50.0))
        m.mem_read(0, "big", 100.0)  # larger than cache: streamed
        m.mem_read(0, "big", 100.0)
        assert m.counters.mem_traffic[0] == 200.0
