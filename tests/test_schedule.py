"""Tests for the bulge-chase pipeline schedule (Figure 2)."""

import pytest

from repro.eig.schedule import (
    group_of_step,
    pipeline_schedule,
    schedule_checks,
)
from repro.linalg.sbr import chase_steps


def _max_concurrency(n, b, h):
    return max(len(ph.steps) for ph in pipeline_schedule(n, b, h))


class TestFigure2:
    def test_paper_phase5(self):
        """Figure 2 (left): iterations {(3,1), (2,3), (1,5)} concurrent."""
        sched = {p.phase: p for p in pipeline_schedule(48, 8, 4)}
        assert sched[5].ij_set == {(3, 1), (2, 3), (1, 5)}

    def test_paper_phase6(self):
        """Figure 2 (right): iterations {(3,2), (2,4), (1,6)}."""
        sched = {p.phase: p for p in pipeline_schedule(48, 8, 4)}
        assert sched[6].ij_set == {(3, 2), (2, 4), (1, 6)}

    def test_phase1_is_first_panel(self):
        sched = pipeline_schedule(48, 8, 4)
        assert sched[0].ij_set == {(1, 1)}
        assert sched[0].phase == 1

    def test_phases_strictly_increasing(self):
        sched = pipeline_schedule(40, 8, 2)
        phases = [p.phase for p in sched]
        assert phases[0] == 1
        assert all(b > a for a, b in zip(phases, phases[1:]))


class TestStructure:
    @pytest.mark.parametrize("n,b,h", [(48, 8, 4), (60, 6, 3), (64, 16, 4), (40, 8, 2)])
    def test_invariants(self, n, b, h):
        checks = schedule_checks(n, b, h)
        assert checks["phases_disjoint"], "concurrent QR blocks overlap"
        assert checks["bulge_handoff"], "chase j+1 does not start at chase j's rows"

    def test_schedule_covers_all_steps(self):
        n, b, h = 48, 8, 4
        total = sum(len(ph.steps) for ph in pipeline_schedule(n, b, h))
        assert total == len(chase_steps(n, b, h))

    def test_max_concurrency_grows_with_matrix(self):
        assert _max_concurrency(96, 8, 4) > _max_concurrency(32, 8, 4)

    def test_concurrency_bounded_by_half_band_count(self):
        # At most ~n/(2b) bulges are in flight (the paper's pipeline bound).
        n, b, h = 96, 8, 4
        assert _max_concurrency(n, b, h) <= n // (2 * b) + 1


class TestGroupAssignment:
    def test_group_is_chase_index(self):
        n, b = 48, 8
        for s in chase_steps(n, b, 4):
            g = group_of_step(s, n, b)
            assert 0 <= g < n // b
            assert g == (s.j - 1) % (n // b)

    def test_same_phase_distinct_groups(self):
        # Concurrent steps run on distinct groups (they have distinct j).
        for ph in pipeline_schedule(48, 8, 4):
            groups = [group_of_step(s, 48, 8) for s in ph.steps]
            assert len(set(groups)) == len(groups)

    @pytest.mark.parametrize("n,b,h", [(44, 16, 8), (76, 16, 8), (50, 8, 4)])
    def test_ragged_band_keeps_groups_disjoint(self, n, b, h):
        """Regression: with b ∤ n the group count must be ⌈n/b⌉, not ⌊n/b⌋.

        Flooring wrapped the ragged chain's extra chase onto group 0, so two
        *same-phase* steps of one pipeline phase landed on the same processor
        group — serializing steps the schedule proves disjoint and
        double-charging that group's ranks.
        """
        assert n % b != 0  # the configurations that used to collide
        for ph in pipeline_schedule(n, b, h):
            groups = [group_of_step(s, n, b) for s in ph.steps]
            assert len(set(groups)) == len(groups), f"phase {ph.phase} collides"
        checks = schedule_checks(n, b, h)
        assert checks["groups_disjoint"]

    @pytest.mark.parametrize("n,b,h", [(48, 8, 4), (64, 16, 4), (44, 16, 8)])
    def test_schedule_checks_report_groups_disjoint(self, n, b, h):
        assert schedule_checks(n, b, h)["groups_disjoint"]

    def test_group_count_is_ceil(self):
        # 5 chases per chain at (44, 16): indices 0..4 with no wrap-around.
        seen = {group_of_step(s, 44, 16) for s in chase_steps(44, 16, 8)}
        assert seen == set(range(-(-44 // 16)))
