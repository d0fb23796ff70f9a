"""Table I: asymptotic communication costs of the four eigensolvers.

Renders the paper's table symbolically and evaluates every row numerically
for concrete (n, p, δ), so the benchmark can print predicted-vs-measured
side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.costs import (
    AsymptoticCost,
    ca_sbr_eigensolver_cost,
    eigensolver_2p5d_cost,
    elpa_cost,
    scalapack_cost,
)


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I: symbolic cost strings + a numeric evaluator."""

    algorithm: str
    w_formula: str
    q_formula: str
    s_formula: str
    evaluate: object  # callable (n, p, delta) -> AsymptoticCost


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row(
        "ScaLAPACK",
        "n^2/sqrt(p)",
        "n^3/p",
        "n log p",
        lambda n, p, delta=0.5: scalapack_cost(n, p, cache_words=0.0),
    ),
    Table1Row(
        "ELPA",
        "n^2/sqrt(p)",
        "-",
        "n log p",
        lambda n, p, delta=0.5: elpa_cost(n, p),
    ),
    Table1Row(
        "CA-SBR",
        "n^2/sqrt(p)",
        "n^2 log n/sqrt(p)",
        "sqrt(p)(log^2 p + log n)",
        lambda n, p, delta=0.5: ca_sbr_eigensolver_cost(n, p),
    ),
    Table1Row(
        "Theorem IV.4",
        "n^2/p^delta",
        "n^2 log p/p^delta",
        "p^delta log^2 p",
        lambda n, p, delta=0.5: eigensolver_2p5d_cost(n, p, delta),
    ),
)


def render_table1() -> str:
    """The paper's Table I (symbolic), as fixed-width text."""
    header = f"{'Algorithm':<14} {'W (beta)':<20} {'Q (nu)':<22} {'S (alpha)':<26}"
    rule = "-" * len(header)
    lines = [header, rule]
    for row in TABLE1_ROWS:
        lines.append(f"{row.algorithm:<14} {row.w_formula:<20} {row.q_formula:<22} {row.s_formula:<26}")
    lines.append(rule)
    lines.append("All variants require O(n^3/p) computation; delta in [1/2, 2/3].")
    return "\n".join(lines)


def table1_numeric(n: int, p: int, delta: float = 2.0 / 3.0) -> dict[str, AsymptoticCost]:
    """Evaluate every Table I row at concrete parameters."""
    return {row.algorithm: row.evaluate(n, p, delta) for row in TABLE1_ROWS}
