"""Ablations over the design parameters Section V calls out.

* ``w`` (Algorithm III.1's pipeline depth): more supersteps for a smaller
  working set — S grows ~linearly in w, the peak temporary memory shrinks.
* ``qmax`` (Theorem III.6's base-case rank cap): capping the square-QR base
  cases trades base-case bandwidth against synchronization; the theorem's
  default must not be grossly beaten by either extreme.
* ``k = p^{2−3δ}`` single-stage band reduction (the §V suggestion "to reduce
  the number of band-reduction stages ... use k = p^{2−3δ} ... but this
  results in a greater synchronization cost" — per-stage, larger k does
  fewer stages overall at more supersteps per stage).
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.blocks.rect_qr import rect_qr
from repro.blocks.streaming import streaming_matmul
from repro.dist.banded import DistBandMatrix
from repro.dist.grid import ProcGrid
from repro.eig.band_to_band import band_to_band_2p5d
from repro.report.tables import format_table
from repro.util.matrices import _rng, random_banded_symmetric

from _common import spectrum_bound, write_result


def sweep_w():
    rows = []
    r = _rng(9)
    a = r.standard_normal((256, 256))
    b = r.standard_normal((256, 32))
    for w in (1, 2, 4, 8):
        mach = BSPMachine(16)
        grid = ProcGrid(mach, (2, 2, 4))
        streaming_matmul(mach, grid, a, b, w=w, a_key="A")
        rep = mach.cost()
        rows.append([w, rep.W, rep.S, rep.M])
    return rows


def sweep_qmax():
    rows = []
    a = _rng(10).standard_normal((512, 32))
    for qmax in (1, 4, 16, None):
        mach = BSPMachine(16)
        u, t, r = rect_qr(mach, mach.world, a, qmax=qmax)
        rep = mach.cost()
        # every setting factors exactly (asserted, not printed: host numerics)
        resid = np.abs((np.eye(512, 32) - u @ (t @ u[:32, :].T)) @ r - a).max()
        assert resid < 1e-7, f"qmax={qmax}: residual {resid}"
        rows.append([qmax if qmax else "default", rep.W, rep.S])
    return rows


def sweep_k():
    rows = []
    a = random_banded_symmetric(384, 32, seed=11)
    ref = np.linalg.eigvalsh(a)
    for k, label in [(2, "k=2 (default)"), (4, "k=4"), (8, "k=8 (one shot)")]:
        mach = BSPMachine(48)
        band = DistBandMatrix(mach, a.copy(), 32, mach.world)
        out = band_to_band_2p5d(mach, band, k=k)
        rep = mach.cost()
        err = np.abs(ref - np.linalg.eigvalsh(out.data)).max()
        assert err <= spectrum_bound(ref), f"{label}: |eig err| = {err}"
        rows.append([label, out.b, rep.W, rep.S])
    return rows


def sweep_base_case():
    """2-D vs 2.5D square-QR base case (DESIGN.md §7 follow-up): the
    replicated variant's streaming term shrinks with p^delta but its
    replication overhead only pays off beyond the base-case sizes the
    eigensolvers generate — measured here so the default (2-D) is justified."""
    from repro.blocks.square_qr import square_qr
    from repro.blocks.square_qr_25d import square_qr_25d

    rows = []
    a = _rng(12).standard_normal((384, 384))
    for label, fn in [("2D base", square_qr), ("2.5D base", lambda m, g, x: square_qr_25d(m, g, x, delta=2 / 3))]:
        mach = BSPMachine(64)
        fn(mach, mach.world, a.copy())
        rep = mach.cost()
        rows.append([label, rep.W, rep.S, rep.M])
    return rows


def run_experiment():
    return sweep_w(), sweep_qmax(), sweep_k(), sweep_base_case()


def test_ablations():
    w_rows, q_rows, k_rows, base_rows = run_experiment()
    text = "\n\n".join(
        [
            format_table(["w", "W", "S", "peak M"], w_rows,
                         title="Algorithm III.1 pipeline depth w (p=16, c=4)"),
            format_table(["qmax", "W", "S"], q_rows,
                         title="Theorem III.6 base-case cap qmax (512x32, p=16)"),
            format_table(["strategy", "final b", "W", "S"], k_rows,
                         title="band-to-band k (n=384, b=32, p=48)"),
            format_table(["base case", "W", "S", "peak M"], base_rows,
                         title="rect-QR base case: 2D vs 2.5D square QR (384x384, p=64)"),
        ]
    )
    write_result("ablations", text)

    # w: supersteps grow with w; W stays flat (same volume, more rounds).
    assert w_rows[-1][2] > w_rows[0][2]
    assert w_rows[-1][1] < 1.5 * w_rows[0][1]
    # k: larger k reaches a thinner band in one stage (eigenvalues preserved:
    # asserted in sweep_k), and the per-stage supersteps do not collapse (the
    # cost the paper warns about).
    assert k_rows[-1][1] < k_rows[0][1]
    assert k_rows[-1][3] > k_rows[0][3]
    # Base cases: both within 2x of each other in W (parity at this size —
    # the reason the 2-D base stays the default), 2.5D uses more memory.
    assert base_rows[1][1] < 2.0 * base_rows[0][1]
    assert base_rows[0][1] < 2.0 * base_rows[1][1]
    assert base_rows[1][3] > base_rows[0][3]
