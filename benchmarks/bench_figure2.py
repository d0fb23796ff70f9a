"""Figure 2 — concurrent QR factorizations and updates of Algorithm IV.2.

Reproduces the paper's diagram of pipeline phases 5 and 6 for k = 2 and
asserts the exact concurrency sets the caption states:
{(3,1), (2,3), (1,5)} and {(3,2), (2,4), (1,6)}.
"""

from repro.eig.schedule import pipeline_schedule, schedule_checks
from repro.report.figures import render_figure2

from _common import write_result

N, B, K = 48, 8, 2


def run_experiment():
    sched = {p.phase: p for p in pipeline_schedule(N, B, B // K)}
    fig = render_figure2(n=N, b=B, k=K, phases=(5, 6))
    checks = schedule_checks(N, B, B // K)
    return sched, fig, checks


def test_figure2():
    sched, fig, checks = run_experiment()
    write_result("figure2", fig)

    assert sched[5].ij_set == {(3, 1), (2, 3), (1, 5)}
    assert sched[6].ij_set == {(3, 2), (2, 4), (1, 6)}
    assert checks["phases_disjoint"]
    assert checks["bulge_handoff"]
