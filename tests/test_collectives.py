"""Tests for the BSP collectives' cost conventions.

Each collective must charge the two-phase bandwidth-optimal pattern
(every rank moves O(w), never O(g·w)) and O(1) supersteps.  (The other wire
shapes are named patterns of a plain comm charge: ``tests/test_metrics.py``.)
"""

import pytest

from repro.bsp import BSPMachine, RankGroup, collectives, pattern


def group(*ranks):
    return RankGroup(tuple(ranks))


class TestBcast:
    def test_every_rank_moves_about_w(self):
        m = BSPMachine(8)
        collectives.bcast(m, m.world, words=800.0)
        words = m.counters.words_sent + m.counters.words_recv
        assert (words <= 3 * 800.0).all()
        assert (words >= 800.0 * (8 - 1) / 8).all()
        assert m.cost().S == 2

    def test_single_rank_is_free(self):
        m = BSPMachine(4)
        collectives.bcast(m, group(2), words=100.0)
        assert m.cost().W == 0 and m.cost().S == 0

    def test_root_must_be_member(self):
        m = BSPMachine(4)
        with pytest.raises(ValueError, match="root"):
            collectives.bcast(m, group(0, 1), words=10.0, root=3)

    def test_rejects_negative_words(self):
        m = BSPMachine(4)
        with pytest.raises(ValueError):
            collectives.bcast(m, m.world, words=-1.0)


class TestAllreduceAndFriends:
    def test_allreduce_symmetric_charges(self):
        m = BSPMachine(4)
        collectives.allreduce(m, m.world, words=100.0)
        sent = {m.counters.words_sent[r] for r in range(4)}
        assert len(sent) == 1  # perfectly symmetric


class TestP2P:
    def test_charges_both_ends_no_superstep(self):
        """A point-to-point transfer is a plain comm charge with one pair."""
        m = BSPMachine(4)
        m.charge_comm(0, 42.0, 3, 42.0, pattern=pattern.pairs(1))
        assert m.counters.words_sent[0] == 42.0
        assert m.counters.words_recv[3] == 42.0
        assert m.cost().S == 0  # caller batches supersteps
