"""BSP discipline verification.

:class:`VerifiedMachine` re-checks conservation, monotone counters and the
per-rank memory bound at every superstep (``repro run --verify`` /
``REPRO_VERIFY=1`` in tests).  The static half of the cost discipline —
every dense product charged or pragma-waived — is the tier-1 test
``tests/test_numerics_charged.py``; see docs/static_analysis.md.
"""

from repro.lint.verify import BSPDisciplineError, VerifiedMachine

__all__ = ["BSPDisciplineError", "VerifiedMachine"]
