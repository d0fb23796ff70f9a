"""Lemma III.3 — streaming multiplication against a replicated operand.

Sweeps the replication factor c at fixed p and measures:

* W per rank ≈ (mk + nk)/p^δ — decreasing with c,
* the conditional Q term: with H above the replicated block size, repeated
  products against the same A cost no vertical traffic for A; below it,
  every pass re-reads A (the cache model produces this automatically),
* S ∝ w (the pipeline-depth parameter).
"""

import numpy as np

from repro.bsp import BSPMachine, MachineParams
from repro.blocks.streaming import streaming_matmul
from repro.dist.grid import ProcGrid
from repro.model.costs import c_to_delta, streaming_mm_cost
from repro.report.tables import format_table
from repro.util.matrices import _rng

from _common import write_result

P = 64
N, K = 512, 32
GRIDS = [(8, 8, 1), (4, 4, 4), (2, 2, 16)]


def run_experiment():
    r = _rng(2)
    a = r.standard_normal((N, N))
    b = r.standard_normal((N, K))
    rows = []
    for shape in GRIDS:
        mach = BSPMachine(P)
        grid = ProcGrid(mach, shape)
        streaming_matmul(mach, grid, a, b, a_key="A")
        rep = mach.cost()
        c = shape[2]
        delta = c_to_delta(P, c)
        pred = streaming_mm_cost(N, N, K, P, delta)
        rows.append([f"{shape}", c, rep.W, pred.W, rep.W / pred.W, rep.S])

    # Cache sweep: 10 repeated multiplications against the same A.
    cache_rows = []
    block_words = (N / 4) ** 2  # per-rank A block on the (4,4,4) grid
    for label, cache in [("H >> block", 8 * block_words), ("H << block", block_words / 16)]:
        mach = BSPMachine(P, MachineParams(cache_words=cache))
        grid = ProcGrid(mach, (4, 4, 4))
        for _ in range(10):
            streaming_matmul(mach, grid, a, b, a_key="A")
        cache_rows.append([label, cache, mach.cost().Q])
    return rows, cache_rows


def test_streaming():
    rows, cache_rows = run_experiment()
    table = format_table(
        ["grid", "c", "W measured", "W predicted", "ratio", "S"],
        rows,
        title=f"Lemma III.3 (p={P}, {N}x{N} replicated A times {N}x{K})",
    )
    cache_table = format_table(
        ["cache", "H (words)", "Q after 10 products"],
        cache_rows,
        title="conditional vertical term (A resident vs streamed)",
    )
    write_result("lemma_III3_streaming", table + "\n\n" + cache_table)

    ws = [row[2] for row in rows]
    assert ws[1] < ws[0], "c=4 must beat c=1"
    assert ws[2] < ws[1], "c=16 must beat c=4"
    # Within constants of the bound at every c.
    for row in rows:
        assert row[4] < 8.0, f"{row[0]}: ratio {row[4]}"
    # Cache condition: resident A cuts Q by a large factor over 10 passes.
    q_big, q_small = cache_rows[0][2], cache_rows[1][2]
    assert q_small > 2.5 * q_big
