"""Algorithm IV.3: the complete 2.5D symmetric eigensolver.

Pipeline (Theorem IV.4):

1. **2.5D full-to-band** to b = n / max(p^{2−3δ}, log p)  (Algorithm IV.1);
2. **O(log p) 2.5D band-to-band stages**, each halving the band-width
   (k = 2) and shrinking the active processor set by k^ζ, ζ = (1−δ)/δ —
   chosen so the per-stage horizontal cost n·b̄/p̄^δ stays constant;
3. **CA-SBR halvings** on p^δ ranks from n/p^δ down to n/p  (Lemma IV.2);
4. gather the narrow band on one rank and finish sequentially
   (band → tridiagonal → Sturm bisection).

Total: F = O(n³/p), W = O(n²/p^δ), Q = O(n² log p/p^δ), S = O(p^δ log² p),
using M = O(n²/p^{2(1−δ)}) words per rank — the same communication costs as
2.5D LU/QR, a factor √c = p^{δ−1/2} below every 2-D eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bsp.counters import CostReport
from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.dist.grid import ProcGrid, factor_2p5d
from repro.eig.band_to_band import band_to_band_2p5d
from repro.eig.ca_sbr import ca_sbr_reduce
from repro.eig.full_to_band import full_to_band_2p5d
from repro.faults.errors import UnrecoverableFault
from repro.faults.recovery import (
    guard_band,
    guard_spectrum,
    guard_tridiagonal,
    run_stage,
)
from repro.linalg.band_tridiag import band_to_tridiagonal_storage, extract_band
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.model.tuning import replan_delta
from repro.util.intlog import next_power_of_two
from repro.util.validation import check_symmetric, frobenius_norm


def finish_sequential(
    machine: BSPMachine, band: DistBandMatrix, tag: str = "finish", root: int = 0
) -> np.ndarray:
    """Gather the narrow band on ``root`` and compute its eigenvalues there.

    Charges ``root`` the sequential band→tridiagonal work (O(n·b²) flops,
    O(n·b·log b) streaming) and the Sturm bisection (O(n²) per sweep).
    Both charges are analytic — functions of (n, b) alone — so how
    ``repro.linalg`` carries the two steps out on the host (Givens sweeps
    or a Householder chase, by band-width) never shows in a cost report.
    Under fault injection the gathered band and the extracted tridiagonal
    are both guarded (the gather may corrupt the live band — the caller's
    checkpoint restores it on retry).
    """
    n, b = band.n, band.b
    faulty = machine.faults.enabled
    with machine.span("finish"):
        if faulty:
            norm0 = frobenius_norm(band.data)  # before the (corruptible) gather
        data = band.gather(root, tag=f"{tag}:gather")
        if faulty:
            guard_band(machine, data, b, norm0, "finish:gather",
                       RankGroup((root,)))
        if b > 1:
            # Band-storage reduction: O(n·b) working words on root instead
            # of the dense path's n².
            d, e = band_to_tridiagonal_storage(extract_band(data, b), b)
            machine.charge_flops(root, 8.0 * n * b * b)
            machine.mem_stream(root, float(n * b) * max(1.0, np.log2(max(2, b))))
        else:
            d = np.diag(data).copy()
            e = np.diag(data, -1).copy()
        if faulty:
            machine.faults.corrupt_output(d, "finish:tridiag")
            machine.faults.corrupt_output(e, "finish:tridiag")
            guard_tridiagonal(machine, d, e, norm0, root)
        evals = sturm_bisection_eigenvalues(d, e)
        machine.charge_flops(root, 64.0 * 5.0 * n * n)
        machine.mem_stream(root, 64.0 * 2.0 * n)
        machine.superstep(machine.world, 1)
    return evals


@dataclass
class EigensolveResult:
    """Output of :func:`eigensolve_2p5d`: the spectrum plus cost breakdown."""

    eigenvalues: np.ndarray
    cost: CostReport
    delta: float
    replication: int  # c = p^{2δ−1}
    initial_bandwidth: int
    stages: list[tuple[str, CostReport]] = field(default_factory=list)
    #: structured descriptors aligned with ``stages`` (kind, n, b_in, b_out,
    #: k, p_active, delta) — what repro.metrics.attainment needs to evaluate
    #: the matching lemma/theorem cost expressions
    stage_meta: list[dict] = field(default_factory=list)

    def stage_summary(self) -> str:
        lines = [f"total: {self.cost.summary()}"]
        for name, rep in self.stages:
            lines.append(f"  {name}: {rep.summary()}")
        return "\n".join(lines)


def default_initial_bandwidth(n: int, p: int, delta: float) -> int:
    """The paper's choice b = n / max(p^{2−3δ}, log₂ p), rounded down to a
    power of two so the k = 2 halving stages divide evenly."""
    denom = max(p ** (2.0 - 3.0 * delta), np.log2(max(2, p)))
    b = int(np.clip(round(n / denom), 1, max(1, n // 2)))
    pow2 = next_power_of_two(b)
    return pow2 if pow2 == b else pow2 // 2


def eigensolve_2p5d(
    machine: BSPMachine,
    a: np.ndarray,
    delta: float = 0.5,
    b0: int | None = None,
    k: int = 2,
    collect_stages: bool = True,
    tag: str = "eig2p5d",
) -> EigensolveResult:
    """Compute all eigenvalues of symmetric ``a`` with Algorithm IV.3.

    ``delta`` ∈ [1/2, 2/3] selects the replication factor c = p^{2δ−1}
    (δ = 1/2: classic 2-D, c = 1; δ = 2/3: maximal replication c = p^{1/3});
    the machine's p is factored into the nearest realizable q×q×c grid.
    ``b0`` overrides the paper's initial band-width; ``k`` is the per-stage
    band-width ratio of the 2.5D band-to-band stages.
    """
    a = check_symmetric(a, "A")
    n = a.shape[0]
    p = machine.p
    if n < p:
        raise ValueError(f"the paper assumes n >= p (got n={n}, p={p})")
    q, c = factor_2p5d(p, delta)
    grid = ProcGrid(machine, (q, q, c), machine.world.take(q * q * c))
    # Effective δ of the realized grid (p may not admit the exact target).
    delta_eff = 0.5 if p == 1 else 0.5 * (1.0 + np.log(c) / np.log(p))

    b = b0 if b0 is not None else default_initial_bandwidth(n, p, delta_eff)
    if not 1 <= b < n:
        raise ValueError(f"initial band-width must be in [1, n-1], got {b}")
    stages: list[tuple[str, CostReport]] = []
    stage_meta: list[dict] = []
    mark = machine.cost()

    def snapshot(name: str, **meta: object) -> None:
        nonlocal mark
        if collect_stages:
            now = machine.cost()
            stages.append((name, now - mark))
            stage_meta.append({"name": name, **meta})
            mark = now

    # Every stage is declared once and runs under run_stage (checkpoint ->
    # guard -> bounded retries; on a rank loss the grid shrinks to the
    # survivors and delta is re-planned).  Without a live fault layer
    # run_stage is the plain call — charge-for-charge identical to a
    # machine that has no fault layer at all.
    norm_a = frobenius_norm(a)  # what every stage guard checks against

    with machine.span(tag):
        # Stage 1: full → band.
        def run_f2b() -> np.ndarray:
            return full_to_band_2p5d(machine, grid, a, b, tag=f"{tag}:f2b")

        def loss_f2b(survivors: RankGroup) -> None:
            nonlocal grid, delta_eff
            p_bar = survivors.size
            d_new = replan_delta(n, p_bar, machine.params)
            q2, c2 = factor_2p5d(p_bar, d_new)
            grid = ProcGrid(machine, (q2, q2, c2), survivors.take(q2 * q2 * c2))
            delta_eff = 0.5 if p_bar == 1 else 0.5 * (1.0 + np.log(c2) / np.log(p_bar))

        banded = run_stage(
            machine, "full_to_band", run_f2b,
            arrays={"A": a}, group=grid.group(),
            guard=lambda out: guard_band(
                machine, out, b, norm_a, "full_to_band", grid.group()),
            on_rank_loss=loss_f2b,
        )
        snapshot(
            f"full_to_band(b={b})",
            kind="full_to_band",
            n=n,
            b_in=n,
            b_out=b,
            p_active=grid.group().size,
            delta=delta_eff,
        )
        world = machine.faults.live_group(machine.world)
        if world is None:
            raise UnrecoverableFault("no surviving ranks", span=tag)
        p_live = world.size
        band = DistBandMatrix(machine, banded, b, world)

        # Stage 2: 2.5D band-to-band halvings down to ~n/p^δ, shrinking the
        # active group by k^ζ each stage (ζ = (1−δ)/δ).
        zeta = (1.0 - delta_eff) / delta_eff
        target2 = max(2, int(np.ceil(n / p_live**delta_eff)))
        active = world
        stage_idx = 0
        while band.b > target2 and band.b % k == 0 and band.b >= 2:
            if stage_idx > 0:
                new_size = max(1, int(round(active.size / k**zeta)))
                if new_size < active.size:
                    active = active.take(new_size)
                    with machine.span("shrink", group=active):
                        band = band.redistribute(active)
            idx = stage_idx

            def run_b2b() -> DistBandMatrix:
                return band_to_band_2p5d(machine, band, k=k, tag=f"{tag}:b2b{idx}")

            def loss_b2b(survivors: RankGroup) -> None:
                nonlocal band, active
                active = survivors.take(min(active.size, survivors.size))
                band = band.redistribute(active)

            band = run_stage(
                machine, f"band_to_band[{idx}]", run_b2b,
                arrays={"band": band.data}, group=active,
                guard=lambda out: guard_band(
                    machine, out.data, out.b, norm_a,
                    f"band_to_band[{idx}]", out.group),
                on_rank_loss=loss_b2b,
            )
            snapshot(
                f"band_to_band(b={band.b * k}->{band.b}, p={active.size})",
                kind="band_to_band",
                n=n,
                b_in=band.b * k,
                b_out=band.b,
                k=k,
                p_active=active.size,
                delta=delta_eff,
            )
            stage_idx += 1

        # Stage 3: CA-SBR halvings on p^δ ranks down to ~n/p.
        target3 = max(1, n // p_live)
        if band.b > target3:
            small = world.take(max(1, int(round(p_live**delta_eff))))
            if small.size < band.group.size:
                with machine.span("shrink", group=small):
                    band = band.redistribute(small)
            start_b = band.b

            def run_sbr() -> DistBandMatrix:
                return ca_sbr_reduce(machine, band, target3)

            def loss_sbr(survivors: RankGroup) -> None:
                nonlocal band, small
                small = survivors.take(min(small.size, survivors.size))
                band = band.redistribute(small)

            band = run_stage(
                machine, "ca_sbr", run_sbr,
                arrays={"band": band.data}, group=small,
                guard=lambda out: guard_band(
                    machine, out.data, out.b, norm_a, "ca_sbr", out.group),
                on_rank_loss=loss_sbr,
            )
            snapshot(
                f"ca_sbr(b={start_b}->{band.b}, p={small.size})",
                kind="ca_sbr",
                n=n,
                b_in=start_b,
                b_out=band.b,
                p_active=small.size,
                delta=delta_eff,
            )

        # Stage 4: sequential finish.
        root = world.root

        def run_finish() -> np.ndarray:
            return finish_sequential(machine, band, tag=tag, root=root)

        def loss_finish(survivors: RankGroup) -> None:
            nonlocal band, root
            regrouped = survivors.take(min(band.group.size, survivors.size))
            band = band.redistribute(regrouped)
            root = regrouped.root

        evals = run_stage(
            machine, "finish", run_finish,
            arrays={"band": band.data}, group=band.group,
            guard=lambda out: guard_spectrum(machine, out, n, root),
            on_rank_loss=loss_finish,
        )
        snapshot(
            "finish",
            kind="finish",
            n=n,
            b_in=band.b,
            b_out=1,
            p_active=1,
            delta=delta_eff,
        )

    return EigensolveResult(
        eigenvalues=evals,
        cost=machine.cost(),
        delta=delta_eff,
        replication=c,
        initial_bandwidth=b,
        stages=stages,
        stage_meta=stage_meta,
    )
