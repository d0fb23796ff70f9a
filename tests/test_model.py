"""Tests for the closed-form cost models, Table I, tuning, and bounds."""

import math

import numpy as np
import pytest

from repro.bsp.params import MachineParams
from repro.model.bounds import memory_dependent_lower_bound
from repro.model.costs import (
    LEMMA_STAGES,
    AsymptoticCost,
    band_to_band_cost,
    c_to_delta,
    ca_sbr_eigensolver_cost,
    ca_sbr_halve_cost,
    carma_cost,
    delta_to_c,
    eigensolver_2p5d_cost,
    elpa_cost,
    full_to_band_cost,
    lemma_leading_terms,
    rect_qr_cost,
    scalapack_cost,
    streaming_mm_cost,
)
from repro.model.table1 import render_table1, table1_numeric
from repro.model.tuning import (
    best_delta,
    feasible_deltas,
    tuning_table,
)


class TestDeltaC:
    def test_roundtrip(self):
        for p in (16, 64, 256):
            for d in (0.5, 0.6, 2 / 3):
                assert c_to_delta(p, delta_to_c(p, d)) == pytest.approx(d)

    def test_endpoints(self):
        assert delta_to_c(64, 0.5) == pytest.approx(1.0)
        assert delta_to_c(64, 2 / 3) == pytest.approx(64 ** (1 / 3))


class TestCostAlgebra:
    def test_carma_regimes(self):
        # 1D: sizes/p dominates; 3D: (mnk/p)^{2/3} dominates.
        c1 = carma_cost(10**6, 8, 8, 16)
        assert c1.W == pytest.approx((10**6 * 8 * 2 + 64) / 16 + (10**6 * 64 / 16) ** (2 / 3), rel=0.01)
        c3 = carma_cost(512, 512, 512, 4096)
        assert (512 * 512 * 3) / 4096 < (512**3 / 4096) ** (2 / 3)

    def test_streaming_cache_condition(self):
        with_cache = streaming_mm_cost(256, 256, 32, 64, 0.5, a_in_cache=True)
        without = streaming_mm_cost(256, 256, 32, 64, 0.5, a_in_cache=False)
        assert without.Q > with_cache.Q
        assert without.W == with_cache.W

    def test_full_to_band_matches_theorem_shape(self):
        n, p = 4096, 4096
        for d in (0.5, 2 / 3):
            c = full_to_band_cost(n, p, d, b=n // 12)
            assert c.W == pytest.approx(n * n / p**d)
            assert c.M == pytest.approx(n * n / p ** (2 * (1 - d)))

    def test_band_to_band_stage_invariance(self):
        """The ζ = (1−δ)/δ shrink keeps per-stage W constant (Thm IV.4)."""
        n, d = 4096, 2 / 3
        zeta = (1 - d) / d
        w0 = band_to_band_cost(n, 256, 2, 512, d).W
        w1 = band_to_band_cost(n, 128, 2, int(512 / 2**zeta), d).W
        assert w1 == pytest.approx(w0, rel=0.05)

    def test_eigensolver_w_beats_2d_by_sqrt_c(self):
        n, p = 8192, 4096
        w_2d = eigensolver_2p5d_cost(n, p, 0.5).W
        w_25d = eigensolver_2p5d_cost(n, p, 2 / 3).W
        assert w_2d / w_25d == pytest.approx(math.sqrt(delta_to_c(p, 2 / 3)), rel=0.01)

    def test_add_composes(self):
        a = scalapack_cost(1024, 64)
        b = elpa_cost(1024, 64)
        s = a + b
        assert s.W == a.W + b.W
        assert s.M == max(a.M, b.M)

    def test_time_uses_machine_params(self):
        c = square_qr_cost(512, 64, 0.5)
        t = c.time(MachineParams(gamma=1, beta=0, nu=0, alpha=0))
        assert t == pytest.approx(c.flops)

    def test_rect_qr_tall_skinny_limit(self):
        # For m >> n the mn/p term dominates W.
        c = rect_qr_cost(10**7, 8, 64)
        assert c.W == pytest.approx(10**7 * 8 / 64, rel=0.2)


class TestTable1:
    def test_render_contains_all_rows(self):
        text = render_table1()
        for name in ("ScaLAPACK", "ELPA", "CA-SBR", "Theorem IV.4"):
            assert name in text

    def test_numeric_w_ordering(self):
        rows = table1_numeric(8192, 4096, delta=2 / 3)
        ours = rows["Theorem IV.4"].W
        for name in ("ScaLAPACK", "ELPA", "CA-SBR"):
            assert rows[name].W > ours

    def test_scalapack_q_is_cubic_when_cache_small(self):
        rows = table1_numeric(4096, 256)
        assert rows["ScaLAPACK"].Q == pytest.approx(4096**3 / 256)


class TestTuning:
    def test_feasible_deltas_shrink_with_memory(self):
        n, p = 8192, 4096
        all_d = feasible_deltas(n, p, memory_words=1e18)
        tight = feasible_deltas(n, p, memory_words=n * n / p * 1.5)
        assert len(tight) < len(all_d)
        assert min(tight) == min(all_d) == 0.5

    def test_bandwidth_bound_machine_prefers_max_c(self):
        params = MachineParams(gamma=0.0, beta=1.0, nu=0.0, alpha=0.0)
        d, _ = best_delta(8192, 4096, params)
        assert d == pytest.approx(2 / 3)

    def test_latency_bound_machine_prefers_c1(self):
        params = MachineParams(gamma=0.0, beta=0.0, nu=0.0, alpha=1.0)
        d, _ = best_delta(8192, 4096, params)
        assert d == pytest.approx(0.5)

    def test_memory_limit_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            best_delta(10**6, 4, MachineParams(memory_words=10.0))

    @pytest.mark.parametrize("samples", [2, 3, 5, 9, 33, 100])
    def test_delta_grid_pins_endpoints_exactly(self, samples):
        """Regression: the grid's endpoints are δ = 1/2 and 2/3 *exactly*,
        not the lerp's rounded `lo + (hi−lo)·i/(s−1)` — endpoint pinning
        must not depend on float rounding of the interpolation."""
        from repro.model.tuning import delta_grid

        grid = delta_grid(samples)
        assert len(grid) == samples
        assert grid[0] == 0.5
        assert grid[-1] == 2.0 / 3.0
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_feasible_deltas_include_exact_endpoints(self):
        cands = feasible_deltas(8192, 4096, memory_words=1e18)
        assert cands[0] == 0.5
        assert cands[-1] == 2.0 / 3.0

    def test_best_delta_ties_prefer_smaller_delta(self):
        # All-zero params: every δ costs 0.0; the scan must stay
        # deterministic and return the smallest candidate.
        params = MachineParams(gamma=0.0, beta=0.0, nu=0.0, alpha=0.0)
        d, t = best_delta(8192, 4096, params)
        assert d == 0.5
        assert t == 0.0

    def test_tuning_table_fields(self):
        rows = tuning_table(4096, 256, MachineParams())
        assert len(rows) == 9
        assert rows[0]["delta"] == pytest.approx(0.5)
        assert rows[-1]["delta"] == pytest.approx(2 / 3)
        assert all(r["c"] >= 1 for r in rows)


class TestBounds:
    def test_memory_bound_formula(self):
        assert memory_dependent_lower_bound(1024, 64, 1024**2 / 64) == pytest.approx(
            1024**3 / (64 * 1024 / 8)
        )

    def test_w_s_product_meets_tradeoff(self):
        # W·S for the 2.5D solver is Ω(n²) (up to log factors), as required.
        n, p = 8192, 4096
        c = eigensolver_2p5d_cost(n, p, 2 / 3)
        assert c.W * c.S >= n * n


# ------------------------------------------------------------------ #
# lemma registry <-> numeric closed forms

def square_qr_cost(n: int, p: int, delta: float) -> AsymptoticCost:
    """Lemma III.5: QR of an n×n matrix (Tiskin-style) — the closed form the
    registry's ``square_qr`` row is checked against."""
    pd = p**delta
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / pd,
        mem_traffic=n * n / pd,
        supersteps=pd,
        memory=(n / p ** (1.0 - delta)) ** 2,
    )


# stage -> its numeric closed form at a symbol assignment
_NUMERIC = {
    "streaming_mm": lambda v, d: streaming_mm_cost(
        v["m"], v["n"], v["k"], v["p"], d
    ),
    "carma": lambda v, d: carma_cost(v["m"], v["n"], v["k"], v["p"]),
    "rect_qr": lambda v, d: rect_qr_cost(v["m"], v["n"], v["p"], d),
    "square_qr": lambda v, d: square_qr_cost(v["n"], v["p"], d),
    "full_to_band": lambda v, d: full_to_band_cost(v["n"], v["p"], d, v["b"]),
    "ca_sbr_halve": lambda v, d: ca_sbr_halve_cost(v["n"], v["b"], v["p"]),
    "band_to_band": lambda v, d: band_to_band_cost(
        v["n"], v["b"], v["k"], v["p"], d
    ),
    "eigensolver_2p5d": lambda v, d: eigensolver_2p5d_cost(v["n"], v["p"], d),
}

_BASE_POINT = {"n": 4096.0, "m": 4096.0, "k": 1024.0, "b": 64.0, "p": 256.0}


def _lemma_value(terms, values):
    return sum(
        math.prod(values[s] ** e for s, e in term.items()) for term in terms
    )


class TestLemmaRegistry:
    def test_registry_covers_every_stage(self):
        assert set(_NUMERIC) == set(LEMMA_STAGES)
        for stage in LEMMA_STAGES:
            table = lemma_leading_terms(stage, 0.5)
            assert table["flops"] and table["words"]

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError, match="unknown lemma stage"):
            lemma_leading_terms("fft", 0.5)

    @pytest.mark.parametrize("stage", LEMMA_STAGES)
    @pytest.mark.parametrize("delta", [0.5, 2.0 / 3.0])
    def test_leading_terms_track_numeric_closed_forms(self, stage, delta):
        """Scaling-drift check: numeric_cost / lemma_leading_terms must stay
        within a constant factor when every parameter is scaled up — i.e.
        the registry's exponents match the closed forms' growth rates."""
        terms = lemma_leading_terms(stage, delta)
        ratios = []
        for scale in (1.0, 4.0):
            values = {s: x * scale for s, x in _BASE_POINT.items()}
            cost = _NUMERIC[stage](values, delta)
            for metric, attr in (("flops", "flops"), ("words", "W")):
                predicted = _lemma_value(terms[metric], values)
                ratios.append((metric, scale, getattr(cost, attr) / predicted))
        by_metric: dict[str, list[float]] = {}
        for metric, _, r in ratios:
            by_metric.setdefault(metric, []).append(r)
        for metric, (r1, r4) in by_metric.items():
            drift = r4 / r1
            assert 0.5 < drift < 2.0, (
                f"{stage}/{metric}: lemma exponents drift from the closed "
                f"form (ratio went {r1:.3g} -> {r4:.3g} under 4x scaling)"
            )
