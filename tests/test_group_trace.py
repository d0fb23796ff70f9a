"""Tests for RankGroup and span-attributed communication patterns."""

import pytest

from repro.bsp import BSPMachine, RankGroup, collectives


class TestRankGroup:
    def test_contiguous(self):
        g = RankGroup.contiguous(2, 3)
        assert g.ranks == (2, 3, 4)
        assert g.root == 2

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            RankGroup(())
        with pytest.raises(ValueError):
            RankGroup((1, 1))

    def test_split_even(self):
        parts = RankGroup.contiguous(0, 8).split(4)
        assert [p.size for p in parts] == [2, 2, 2, 2]
        assert parts[1].ranks == (2, 3)

    def test_split_ragged(self):
        parts = RankGroup.contiguous(0, 7).split(3)
        assert [p.size for p in parts] == [3, 2, 2]
        assert sum((p.ranks for p in parts), ()) == tuple(range(7))

    def test_split_rejects_too_many_parts(self):
        with pytest.raises(ValueError, match="cannot split"):
            RankGroup.contiguous(0, 2).split(3)

    def test_take(self):
        g = RankGroup.contiguous(4, 4)
        assert g.take(2).ranks == (4, 5)
        with pytest.raises(ValueError):
            g.take(5)
        with pytest.raises(ValueError):
            g.take(0)

    def test_membership_and_indexing(self):
        g = RankGroup((5, 7, 9))
        assert 7 in g and 6 not in g
        assert g[1] == 7
        assert g[1:].ranks == (7, 9)
        assert g.index_of(9) == 2

    def test_groups_are_hashable_value_types(self):
        assert RankGroup((1, 2)) == RankGroup((1, 2))
        assert hash(RankGroup((1, 2))) == hash(RankGroup((1, 2)))


class TestSpanPattern:
    """Communication *patterns* — who took part, how often, exactly how many
    words — are asserted on spans."""

    def test_bcast_then_superstep_pattern(self):
        m = BSPMachine(4, spans=True)
        with m.span("setup", group=m.world):
            collectives.bcast(m, m.world, 12.0, root=0)
            m.superstep()
        # one bcast on all four ranks, nested in the one setup span
        assert [(e.path, e.ranks) for e in m.spans.events] == [
            ("setup/bcast", (0, 1, 2, 3)),
            ("setup", (0, 1, 2, 3)),
        ]
        bd = m.cost().by_span()
        bcast, setup = bd["setup/bcast"], bd["setup"]
        assert (bcast.calls, setup.calls) == (1, 1)
        # two-phase broadcast of 12 words on g = 4 (share = 3): the root
        # sends 2·3 shares and receives 3; every other rank sends 3 shares
        # and receives 4 — exactly, per rank and in total
        assert bd.rank_values("setup/bcast", "words").tolist() == [27.0, 21.0, 21.0, 21.0]
        assert (bcast.words, bcast.total_words, bcast.supersteps) == (27.0, 90.0, 2)
        # the explicit barrier is setup's own; it moved no words
        assert (setup.words, setup.supersteps) == (0.0, 1)
