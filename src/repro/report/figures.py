"""ASCII reproductions of the paper's two figures.

* **Figure 1** — the matrices of Algorithm IV.1 at two successive recursive
  steps: the already-banded prefix, the panel [A̅₁₁; A̅₂₁] being factored,
  the untouched (left-looking!) trailing block A₂₂, and the aggregated
  update panels U, V growing by b columns per step.
* **Figure 2** — the QR blocks and update windows of two consecutive
  pipeline phases of Algorithm IV.2, labelled with their (i, j) iteration —
  reproducing the concurrency sets {(3,1),(2,3),(1,5)} / {(3,2),(2,4),(1,6)}.

Both renderings are *derived from the executing code* (the same offsets the
reductions use), not hand-drawn.
"""

from __future__ import annotations

import numpy as np

from repro.eig.schedule import pipeline_schedule
from repro.util.validation import check_positive_int


def render_figure1(n_panels: int = 6, step: int = 3, cell: int = 2) -> str:
    """Figure 1: Algorithm IV.1's matrices at recursion steps ``step`` and
    ``step+1`` (panel units; each panel is b×b).

    Legend: ``#`` banded output (done), ``P`` current panel [A̅₁₁; A̅₂₁],
    ``A`` trailing matrix A₂₂ (never updated in place), ``.`` zero;
    the U/V aggregates are drawn beside the matrix (``u``/``v`` columns).
    """
    if step < 1 or step + 1 > n_panels:
        raise ValueError("step out of range")
    out = []
    for s in (step, step + 1):
        grid = [[" "] * n_panels for _ in range(n_panels)]
        for i in range(n_panels):
            for j in range(n_panels):
                if i < s - 1 or j < s - 1:
                    grid[i][j] = "#" if abs(i - j) <= 1 and (i < s - 1 or j < s - 1) else "."
                elif j == s - 1:
                    grid[i][j] = "P"
                elif i == s - 1:
                    grid[i][j] = "P"  # symmetric panel row
                else:
                    grid[i][j] = "A"
        # U/V aggregates: s-1 panel columns, rows below each source panel.
        agg_cols = s - 1
        lines = []
        for i in range(n_panels):
            row = "".join(ch * cell for ch in grid[i])
            uv = "".join(
                ("u" if i > jj else " ") for jj in range(agg_cols)
            )
            vv = "".join(
                ("v" if i > jj else " ") for jj in range(agg_cols)
            )
            lines.append(f"{row}   U:{uv:<{n_panels}} V:{vv:<{n_panels}}")
        out.append(f"recursive step {s} (b-by-b panel units):")
        out.extend(lines)
        out.append("")
    out.append("legend: # banded output   P current panel (QR'd after the")
    out.append("left-looking update)   A untouched trailing matrix   u/v")
    out.append("aggregated update panels (one column block per earlier step)")
    return "\n".join(out)


def render_figure2(n: int = 48, b: int = 8, k: int = 2, phases: tuple[int, int] = (5, 6)) -> str:
    """Figure 2: QR blocks and update windows of two pipeline phases.

    Draws the lower triangle of the band matrix, marking each concurrent
    chase step's QR block with its group digit and its update window with
    ``v`` (the matrix V of that iteration, as in the paper's caption).
    """
    for value, name in ((n, "n"), (b, "b"), (k, "k")):
        check_positive_int(value, name)
    h = b // k
    sched = {ph.phase: ph for ph in pipeline_schedule(n, b, h)}
    panels = []
    for phase in phases:
        if phase not in sched:
            raise ValueError(f"phase {phase} does not exist for n={n}, b={b}, k={k}")
        grid = [["·" if 0 <= i - j <= b else " " for j in range(n)] for i in range(n)]
        labels = []
        for s in sched[phase].steps:
            labels.append(f"({s.i},{s.j})")
            for i in range(s.oqr_r, min(n, s.oqr_r + s.nr)):
                for j in range(s.oqr_c, min(n, s.oqr_c + s.ncols)):
                    if i >= j:
                        grid[i][j] = "Q"
            for i in range(s.oup_c, min(n, s.oup_c + s.nc)):
                for j in range(s.oqr_r, min(n, s.oqr_r + s.nr)):
                    if i >= j and grid[i][j] != "Q":
                        grid[i][j] = "v"
        rows = ["".join(r[: i + 1]) for i, r in enumerate(grid)]
        panels.append((phase, labels, rows))
    out = []
    for phase, labels, rows in panels:
        out.append(f"pipeline phase {phase}: concurrent iterations {', '.join(labels)}")
        out.extend("  " + r for r in rows)
        out.append("")
    out.append("legend: · band   Q QR block being eliminated   v update window")
    out.append("(each concurrent step is executed by its own group Pi-hat_j)")
    return "\n".join(out)
