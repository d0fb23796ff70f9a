"""Machine parameters for the BSP(+cache) cost model of Section II.

Parameters mirror the paper's architectural model:

* ``p``      — processors on a fully-connected network (held by the machine),
* ``memory_words``  (M) — words of main memory per processor,
* ``cache_words``   (H) — words of cache per processor,
* ``gamma``  (γ) — time per floating point operation,
* ``beta``   (β) — time to send or receive a word,
* ``nu``     (ν) — time to move a word between cache and memory,
* ``alpha``  (α) — time per (global) synchronization.

The paper's simplifying assumptions are ``γ ≤ β``, ``ν ≤ β`` and
``ν ≤ γ·√H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineParams:
    """Cost-model parameters of a simulated BSP machine.

    The defaults model a commodity cluster in units of one flop
    (γ = 1): network word transfer ~100× a flop, memory word transfer ~10×,
    global synchronization ~10⁵ flops.  Memory and cache default to
    "effectively unbounded" so pure algorithm-counting experiments are not
    perturbed by capacity effects unless a test asks for them.
    """

    gamma: float = 1.0
    beta: float = 100.0
    nu: float = 10.0
    alpha: float = 1.0e5
    memory_words: float = math.inf
    cache_words: float = math.inf

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "nu", "alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.memory_words <= 0 or self.cache_words <= 0:
            raise ValueError("memory_words and cache_words must be positive")

    def fingerprint(self) -> str:
        """Stable text form of every cost parameter, for cache keys.

        Uses ``repr`` of the floats so any change — however small — in any
        parameter produces a different key (``repr`` round-trips doubles
        exactly; ``inf`` is its own token).  Two params with equal
        fingerprints are equal dataclasses.
        """
        return (
            f"g={self.gamma!r};b={self.beta!r};nu={self.nu!r};"
            f"a={self.alpha!r};M={self.memory_words!r};H={self.cache_words!r}"
        )

    def time(self, flops: float, words: float, mem_traffic: float, supersteps: float) -> float:
        """Modeled BSP time T = γF + βW + νQ + αS."""
        return (
            self.gamma * flops
            + self.beta * words
            + self.nu * mem_traffic
            + self.alpha * supersteps
        )


#: A machine where only horizontal communication matters (β dominant):
#: useful for isolating the W claims of Table I.
BANDWIDTH_BOUND = MachineParams(gamma=0.0, beta=1.0, nu=0.0, alpha=0.0)

#: A machine where only synchronization matters (α dominant).
LATENCY_BOUND = MachineParams(gamma=0.0, beta=0.0, nu=0.0, alpha=1.0)

#: Rough "massively parallel architecture" regime the paper targets:
#: network bandwidth scarce relative to flops, synchronization very costly.
MASSIVELY_PARALLEL = MachineParams(gamma=1.0, beta=500.0, nu=20.0, alpha=5.0e6)
