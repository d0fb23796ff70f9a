"""The communication lower bound cited by the paper (Section I) and the
per-rank memory budget of Theorem IV.4.

* the memory-dependent bound of Ballard–Demmel–Holtz–Schwartz [8]:
  ``W = Ω(n³/(p·√M))`` for O(n³)-work dense linear algebra, which the
  2.5D eigensolver attains (up to log factors) along the whole
  δ ∈ [1/2, 2/3] range;
* :func:`memory_bound_words`, the footprint the verifier enforces.
"""

from __future__ import annotations

import math


def memory_dependent_lower_bound(n: int, p: int, memory_words: float) -> float:
    """W = Ω(n³/(p√M)): least horizontal words per processor for O(n³) work."""
    if memory_words <= 0:
        raise ValueError("memory_words must be positive")
    return n**3 / (p * math.sqrt(memory_words))


def memory_bound_words(n: int, p: int, delta: float, slack: float = 8.0) -> float:
    """Per-rank peak-memory budget for Theorem IV.4: slack·(n²/p^{2(1−δ)} + n + p).

    The leading term is the replication footprint M = n²/p^{2(1−δ)} = c·n²/p
    the theorem allows; the additive ``n + p`` headroom covers lower-order
    storage the implementation genuinely needs (per-column reflector
    vectors, the gathered n·(b+1)-word band with b = n/p at the sequential
    finish).  ``slack`` absorbs the implementation's constants; the dynamic
    verifier (:class:`repro.lint.verify.VerifiedMachine`) enforces the result as a
    hard per-rank cap.
    """
    if not 0.5 <= delta <= 1.0:
        raise ValueError(f"delta must be in [1/2, 1], got {delta}")
    if slack <= 0:
        raise ValueError("slack must be positive")
    leading = n * n / p ** (2.0 * (1.0 - delta))
    return slack * (leading + n + p)
