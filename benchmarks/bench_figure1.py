"""Figure 1 — the matrices of Algorithm IV.1 at two successive steps.

Reproduces the structure diagram and cross-checks it against an *actual
instrumented run*: the QR panel spans of ``full_to_band_2p5d`` must have
exactly the shapes the figure depicts (an (n − s·b) × b sub-diagonal panel
at step s, shrinking by b rows per step, with the U/V aggregates growing by
b columns).
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.dist.grid import ProcGrid
from repro.eig.full_to_band import full_to_band_2p5d
from repro.report.figures import render_figure1
from repro.util.matrices import random_symmetric

from _common import write_result

N, B = 96, 16
PANEL_QR = "full_to_band/panel_qr/rect_qr"


def run_experiment():
    mach = BSPMachine(4, spans=True)
    grid = ProcGrid(mach, (2, 2, 1))
    a = random_symmetric(N, seed=0)
    out = full_to_band_2p5d(mach, grid, a, B)
    # One rect-QR span per factored panel; its own (exclusive) words are the
    # panel's redistribution, so they measure the panel's size.
    panel_words = [e.words for e in mach.spans.events if e.path == PANEL_QR]
    return out, panel_words, a


def test_figure1():
    out, panel_words, a = run_experiment()
    fig = render_figure1(n_panels=N // B, step=3)
    write_result("figure1", fig)

    # The instrumented run factors one panel per b columns, each b rows
    # shorter than the last — exactly the sequence the figure depicts.
    assert len(panel_words) == N // B - 1
    shrink = np.diff(panel_words)
    assert (shrink < 0).all() and np.ptp(shrink) == 0
    # And the output really is banded with A's spectrum (the figure's "#").
    ref = np.linalg.eigvalsh(a)
    got = np.linalg.eigvalsh(out)
    assert np.abs(ref - got).max() < 1e-9 * max(1, np.abs(ref).max())
