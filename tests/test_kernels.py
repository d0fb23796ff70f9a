"""Tests for the charged local compute kernels (repro.bsp.kernels)."""

import numpy as np
import pytest

from repro.bsp import BSPMachine, MachineParams
from repro.bsp.kernels import matmul_flops, qr_flops
from tests.carma_oracle import local_matmul


class TestFlopFormulas:
    def test_matmul_flops(self):
        assert matmul_flops(2, 3, 4) == 48.0

    def test_qr_flops_positive_and_dominant_term(self):
        assert qr_flops(100, 10) == pytest.approx(2 * 100 * 100 - (2 / 3) * 1000)
        assert qr_flops(8, 8) > 0


class TestLocalMatmul:
    def test_result_and_charges(self, rng):
        m = BSPMachine(2)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        c = local_matmul(m, 1, a, b)
        assert np.abs(c - a @ b).max() < 1e-12
        assert m.counters.flops[1] == matmul_flops(6, 4, 5)
        assert m.counters.flops[0] == 0.0
        assert m.counters.mem_traffic[1] > 0

    def test_transpose_flags(self, rng):
        m = BSPMachine(1)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((5, 4))
        c = local_matmul(m, 0, a, b, transpose_a=True, transpose_b=True)
        assert np.abs(c - a.T @ b.T).max() < 1e-12

    def test_accumulate(self, rng):
        m = BSPMachine(1)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        acc = np.ones((3, 3))
        out = local_matmul(m, 0, a, b, accumulate=acc)
        assert out is acc
        assert np.abs(acc - (np.ones((3, 3)) + a @ b)).max() < 1e-12

    def test_shape_mismatch(self, rng):
        m = BSPMachine(1)
        with pytest.raises(ValueError):
            local_matmul(m, 0, np.zeros((2, 3)), np.zeros((4, 5)))

    def test_keyed_operands_hit_cache(self, rng):
        m = BSPMachine(1, MachineParams(cache_words=1e9))
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        local_matmul(m, 0, a, b, a_key="A", b_key="B")
        q1 = m.counters.mem_traffic[0]
        local_matmul(m, 0, a, b, a_key="A", b_key="B")
        q2 = m.counters.mem_traffic[0] - q1
        assert q2 < q1  # operand reads became hits
