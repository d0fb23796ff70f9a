"""Small integer-math helpers used throughout the BSP algorithms.

The paper assumes matrix dimensions divisible by grid sizes and that several
quantities are powers of two; these helpers centralize rounding/padding so
the algorithm modules stay readable.
"""

from __future__ import annotations


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for nonnegative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div numerator must be nonnegative, got {a}")
    return -(-a // b)


def next_power_of_two(x: int) -> int:
    """Return the smallest power of two >= ``x`` (for positive ``x``)."""
    if x <= 0:
        raise ValueError(f"next_power_of_two requires positive x, got {x}")
    return 1 << (x - 1).bit_length()


def ilog2(x: int) -> int:
    """Return ``floor(log2 x)`` for positive integer ``x``."""
    if x <= 0:
        raise ValueError(f"ilog2 requires positive x, got {x}")
    return x.bit_length() - 1


def next_multiple(x: int, m: int) -> int:
    """Return the smallest multiple of ``m`` >= ``x``."""
    if m <= 0:
        raise ValueError(f"next_multiple requires positive m, got {m}")
    if x <= 0:
        return m
    return ceil_div(x, m) * m


def split_evenly(n: int, parts: int) -> list[int]:
    """Split ``n`` items into ``parts`` contiguous chunk sizes.

    The first ``n % parts`` chunks get one extra item, so sizes differ by at
    most one — the "evenly distributed layout" assumed by the paper's
    algorithms for their inputs.
    """
    if parts <= 0:
        raise ValueError(f"split_evenly requires positive parts, got {parts}")
    if n < 0:
        raise ValueError(f"split_evenly requires nonnegative n, got {n}")
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def chunk_offsets(sizes: list[int]) -> list[int]:
    """Return exclusive prefix sums of ``sizes`` (chunk start offsets)."""
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    return offsets[:-1]
