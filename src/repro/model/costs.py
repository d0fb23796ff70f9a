"""The paper's cost bounds as explicit functions.

Every lemma/theorem in Sections III–IV states a BSP cost of the form
``O(γ·F + β·W + ν·Q + α·S)`` with a memory footprint ``M``.  This module
encodes them (leading terms, unit constants) so tests can check measured
costs against predictions and the tuning module can optimize parameters.

All functions return an :class:`AsymptoticCost`; log factors are included
where the paper states them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bsp.params import MachineParams


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


@dataclass(frozen=True)
class AsymptoticCost:
    """Leading-order cost terms (unit constants) of an algorithm."""

    flops: float  # F
    words: float  # W (horizontal)
    mem_traffic: float  # Q (vertical)
    supersteps: float  # S
    memory: float  # M per processor

    @property
    def F(self) -> float:  # noqa: N802
        return self.flops

    @property
    def W(self) -> float:  # noqa: N802
        return self.words

    @property
    def Q(self) -> float:  # noqa: N802
        return self.mem_traffic

    @property
    def S(self) -> float:  # noqa: N802
        return self.supersteps

    @property
    def M(self) -> float:  # noqa: N802
        return self.memory

    def time(self, params: MachineParams) -> float:
        return params.time(self.flops, self.words, self.mem_traffic, self.supersteps)

    def __add__(self, other: "AsymptoticCost") -> "AsymptoticCost":
        return AsymptoticCost(
            self.flops + other.flops,
            self.words + other.words,
            self.mem_traffic + other.mem_traffic,
            self.supersteps + other.supersteps,
            max(self.memory, other.memory),
        )


# --------------------------------------------------------------------- #
# Section III building blocks


def carma_cost(m: int, n: int, k: int, p: int, v: float = 1.0) -> AsymptoticCost:
    """Lemma III.2: rectangular matmul in any load-balanced layout."""
    sizes = m * n + n * k + m * k
    return AsymptoticCost(
        flops=2.0 * m * n * k / p,
        words=sizes / p + v ** (1.0 / 3.0) * (m * n * k / p) ** (2.0 / 3.0),
        mem_traffic=sizes / p,
        supersteps=v * _log2(p),
        memory=sizes / p + (m * n * k / (v * p)) ** (2.0 / 3.0),
    )


def streaming_mm_cost(m: int, n: int, k: int, p: int, delta: float, w: float = 1.0,
                      a_in_cache: bool = True) -> AsymptoticCost:
    """Lemma III.3: multiplication against a replicated m×n operand."""
    pd = p**delta
    q = p ** (1.0 - delta)
    extra_q = 0.0 if a_in_cache else w * m * n / q**2
    return AsymptoticCost(
        flops=2.0 * m * n * k / p,
        words=(m * k + n * k) / pd,
        mem_traffic=(m * k + n * k) / pd + extra_q,
        supersteps=w,
        memory=m * n / q**2 + (m * k + n * k) / (w * pd),
    )


def square_qr_cost(n: int, p: int, delta: float) -> AsymptoticCost:
    """Lemma III.5: QR of an n×n matrix (Tiskin-style)."""
    pd = p**delta
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / pd,
        mem_traffic=n * n / pd,
        supersteps=pd,
        memory=(n / p ** (1.0 - delta)) ** 2,
    )


def rect_qr_cost(m: int, n: int, p: int, delta: float = 0.5) -> AsymptoticCost:
    """Theorem III.6: QR of an m×n matrix (m ≥ n) via Algorithm III.2."""
    pd = p**delta
    lg = _log2(p)
    return AsymptoticCost(
        flops=2.0 * m * n * n / p,
        words=m**delta * n ** (2.0 - delta) / pd + m * n / p,
        mem_traffic=m**delta * n ** (2.0 - delta) / pd + m * n / p,
        supersteps=(n * p / m) ** delta * lg * lg,
        memory=(n**delta * m ** (1.0 - delta) / p ** (1.0 - delta)) ** 2,
    )


# --------------------------------------------------------------------- #
# Section IV reductions


def full_to_band_cost(n: int, p: int, delta: float, b: int,
                      cache_words: float = math.inf) -> AsymptoticCost:
    """Lemma IV.1: 2.5D full-to-band reduction to band-width b."""
    pd = p**delta
    q2 = p ** (2.0 * (1.0 - delta))
    lg = _log2(p)
    extra_q = 0.0 if cache_words > 3.0 * n * n / q2 else (n / b) * n * n / q2
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / pd,
        mem_traffic=n * n / pd + extra_q,
        supersteps=pd * lg * lg,
        memory=n * n / q2,
    )


def ca_sbr_halve_cost(n: int, b: int, p: int) -> AsymptoticCost:
    """Lemma IV.2: CA-SBR band halving (b ≤ n/p)."""
    return AsymptoticCost(
        flops=2.0 * n * n * b / p,
        words=float(n * b),
        mem_traffic=n * n / p,
        supersteps=float(p),
        memory=n * b / p,
    )


def band_to_band_cost(n: int, b: int, k: int, p: int, delta: float) -> AsymptoticCost:
    """Lemma IV.3: 2.5D band-to-band reduction from b to b/k (b ≥ n/p)."""
    pd = p**delta
    lg = _log2(p)
    return AsymptoticCost(
        flops=2.0 * n * n * b / p,
        words=n ** (1.0 + delta) * b ** (1.0 - delta) / pd,
        mem_traffic=n ** (1.0 + delta) * b ** (1.0 - delta) / pd,
        supersteps=k**delta * n ** (1.0 - delta) * pd / b ** (1.0 - delta) * lg,
        memory=(n ** (1.0 - delta) * b**delta / p ** (1.0 - delta)) ** 2,
    )


def eigensolver_2p5d_cost(n: int, p: int, delta: float = 0.5,
                          cache_words: float = math.inf) -> AsymptoticCost:
    """Theorem IV.4: the complete 2.5D symmetric eigensolver."""
    pd = p**delta
    lg = _log2(p)
    q2 = p ** (2.0 * (1.0 - delta))
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / pd,
        mem_traffic=n * n * lg / pd,
        supersteps=pd * lg * lg,
        memory=n * n / q2,
    )


# --------------------------------------------------------------------- #
# Table I baselines


def scalapack_cost(n: int, p: int, cache_words: float = math.inf) -> AsymptoticCost:
    """Table I row 1: ScaLAPACK-style direct tridiagonalization."""
    lg = _log2(p)
    small_cache = cache_words < n * n / p
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / math.sqrt(p),
        mem_traffic=(n**3 / p) if small_cache else (n * n / math.sqrt(p)),
        supersteps=n * lg,
        memory=n * n / p,
    )


def elpa_cost(n: int, p: int) -> AsymptoticCost:
    """Table I row 2: ELPA two-stage reduction."""
    lg = _log2(p)
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / math.sqrt(p),
        mem_traffic=n * n / math.sqrt(p),
        supersteps=n * lg,
        memory=n * n / p,
    )


def ca_sbr_eigensolver_cost(n: int, p: int) -> AsymptoticCost:
    """Table I row 3: CA-SBR eigensolver."""
    lg = _log2(p)
    lgn = _log2(n)
    return AsymptoticCost(
        flops=2.0 * n**3 / p,
        words=n * n / math.sqrt(p),
        mem_traffic=n * n * lgn / math.sqrt(p),
        supersteps=math.sqrt(p) * (lg * lg + lgn),
        memory=n * n / p,
    )


# --------------------------------------------------------------------- #
# symbolic leading terms (read into the tuning-cache fingerprint by
# repro.model.tuning.tuning_signature)

#: stages with a registered lemma; each maps a metric to the leading terms
#: of its lemma as {symbol: exponent} monomials, where the ``p`` exponent
#: may depend on delta.  Sub-leading terms are omitted.
LEMMA_STAGES: tuple[str, ...] = (
    "streaming_mm",
    "carma",
    "rect_qr",
    "square_qr",
    "full_to_band",
    "ca_sbr_halve",
    "band_to_band",
    "eigensolver_2p5d",
)


def lemma_leading_terms(stage: str, delta: float) -> dict[str, list[dict[str, float]]]:
    """Leading terms of a stage's lemma, as exponent maps per metric.

    ``{"flops": [{"n": 3, "p": -1}], "words": [{"n": 2, "p": -delta}]}``
    means F = O(n^3/p) and W = O(n^2/p^delta).  The exponent maps mirror
    the closed forms of the ``*_cost`` functions above (a consistency the
    test suite cross-checks by finite-difference log-slopes).
    """
    d = float(delta)
    table: dict[str, dict[str, list[dict[str, float]]]] = {
        "streaming_mm": {
            "flops": [{"m": 1, "n": 1, "k": 1, "p": -1}],
            "words": [{"m": 1, "k": 1, "p": -d}, {"n": 1, "k": 1, "p": -d}],
        },
        "carma": {
            "flops": [{"m": 1, "n": 1, "k": 1, "p": -1}],
            "words": [
                {"m": 1, "n": 1, "p": -1},
                {"n": 1, "k": 1, "p": -1},
                {"m": 1, "k": 1, "p": -1},
                {"m": 2 / 3, "n": 2 / 3, "k": 2 / 3, "p": -2 / 3},
            ],
        },
        "rect_qr": {
            "flops": [{"m": 1, "n": 2, "p": -1}],
            "words": [{"m": d, "n": 2 - d, "p": -d}, {"m": 1, "n": 1, "p": -1}],
        },
        "square_qr": {
            "flops": [{"n": 3, "p": -1}],
            "words": [{"n": 2, "p": -d}],
        },
        "full_to_band": {
            "flops": [{"n": 3, "p": -1}],
            "words": [{"n": 2, "p": -d}],
        },
        "ca_sbr_halve": {
            "flops": [{"n": 2, "b": 1, "p": -1}],
            "words": [{"n": 1, "b": 1}],
        },
        "band_to_band": {
            "flops": [{"n": 2, "b": 1, "p": -1}],
            "words": [{"n": 1 + d, "b": 1 - d, "p": -d}],
        },
        "eigensolver_2p5d": {
            "flops": [{"n": 3, "p": -1}],
            "words": [{"n": 2, "p": -d}],
        },
    }
    if stage not in table:
        raise KeyError(f"unknown lemma stage {stage!r} (known: {', '.join(LEMMA_STAGES)})")
    return table[stage]


def delta_to_c(p: int, delta: float) -> float:
    """Replication factor c = p^{2δ−1}."""
    return p ** (2.0 * delta - 1.0)


def c_to_delta(p: int, c: float) -> float:
    """δ such that c = p^{2δ−1} (δ = 1/2 when p = 1 or c = 1)."""
    if p <= 1 or c <= 1:
        return 0.5
    return 0.5 * (1.0 + math.log(c) / math.log(p))
