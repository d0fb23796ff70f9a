"""Lemmas IV.2 / IV.3 — the two band-reduction strategies.

Compares CA-SBR (each rank chases whole bulges; 1-D) against the 2.5D
band-to-band algorithm (a processor group per chase) across band-widths:

* for wide bands (b ≥ n/p) the 2.5D algorithm exploits intra-chase
  parallelism: its W stays below CA-SBR's as b grows;
* per-stage invariance (Theorem IV.4's design): halving b while shrinking
  the group by k^ζ keeps the per-stage W roughly constant;
* the k trade-off: one k=4 stage synchronizes less than two k=2 stages.
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.eig.band_to_band import band_to_band_2p5d
from repro.eig.ca_sbr import ca_sbr_halve
from repro.report.tables import format_table
from repro.util.matrices import random_banded_symmetric

from _common import write_result

N, P = 512, 64
BANDS = (16, 32, 64, 128)


def run_experiment():
    rows = []
    for b in BANDS:
        a = random_banded_symmetric(N, b, seed=b)
        m_sbr = BSPMachine(P)
        ca_sbr_halve(m_sbr, DistBandMatrix(m_sbr, a.copy(), b, m_sbr.world))
        m_b2b = BSPMachine(P)
        band_to_band_2p5d(m_b2b, DistBandMatrix(m_b2b, a.copy(), b, m_b2b.world), k=2)
        r_sbr, r_b2b = m_sbr.cost(), m_b2b.cost()
        rows.append([b, r_sbr.F, r_b2b.F, r_sbr.W, r_b2b.W, r_sbr.S, r_b2b.S])

    # k trade-off at b = 64.
    a = random_banded_symmetric(N, 64, seed=64)
    m_k4 = BSPMachine(P)
    band_to_band_2p5d(m_k4, DistBandMatrix(m_k4, a.copy(), 64, m_k4.world), k=4)
    m_2k2 = BSPMachine(P)
    band = DistBandMatrix(m_2k2, a.copy(), 64, m_2k2.world)
    band_to_band_2p5d(m_2k2, band_to_band_2p5d(m_2k2, band, k=2), k=2)
    return rows, m_k4.cost(), m_2k2.cost()


def test_band_reduction():
    rows, k4, two_k2 = run_experiment()
    table = format_table(
        ["b", "F CA-SBR", "F 2.5D b2b", "W CA-SBR", "W 2.5D b2b", "S CA-SBR", "S 2.5D b2b"],
        rows,
        title=f"Lemma IV.2 vs IV.3 (n={N}, p={P}, one halving)",
    )
    k_table = format_table(
        ["strategy", "W", "S"],
        [["one k=4 stage", k4.W, k4.S], ["two k=2 stages", two_k2.W, two_k2.S]],
        title="stage-count trade-off (b=64 -> 16)",
    )
    write_result("lemma_IV23_band_reduction", table + "\n\n" + k_table)

    # Algorithm IV.2's point ("designed to exploit additional parallelism
    # given larger starting band-widths"): CA-SBR executes each bulge chase
    # on ONE rank, so for b >> n/p its critical-path flops blow up; the 2.5D
    # variant spreads every QR/update over a group, keeping max-rank F lower
    # — at the price of more synchronization (Lemma IV.3's larger S).
    f_ratio_narrow = rows[0][1] / rows[0][2]
    f_ratio_wide = rows[-1][1] / rows[-1][2]
    assert f_ratio_wide > 1.5, f"2.5D must win max-rank F at wide bands: {f_ratio_wide}"
    assert f_ratio_wide > f_ratio_narrow, "the advantage must grow with b"
    assert rows[-1][6] > rows[-1][5], "the parallelism costs supersteps"
    # Both stay within a constant factor in W (same O(n^2/p-ish) volume).
    assert rows[-1][4] < 8 * rows[-1][3]
    # Fewer stages, fewer supersteps (the k trade-off of Section IV).
    assert k4.S < two_k2.S
