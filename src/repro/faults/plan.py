"""Deterministic, seeded fault plans.

A :class:`FaultPlan` owns a ``np.random.Generator`` seeded explicitly —
never from the wall clock — and is consulted by the machine's injector at
well-defined sites: superstep barriers (rank failures), collectives
(message drops), and data-movement / kernel boundaries (corruption).  The
sites are visited in the order the *algorithm* dictates, so the same seed
produces the same fault sequence everywhere: a chaos run is exactly reproducible from ``(scenario, seed)``.

Draw accounting: every consultation advances ``draws`` whether or not it
fires, so two runs of the same plan can be compared draw-for-draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: corruption magnitude for the non-NaN branch — an *additive* bump, so a
#: flipped entry changes even when it was exactly zero (e.g. outside-band
#: fill), which a multiplicative flip would silently miss.
BIT_FLIP_SCALE = 2.0**20


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultSpec:
    """What kinds of faults to inject, and how often.

    ``site_filter`` restricts corruption to sites whose name contains one of
    the given substrings (targeted tests, e.g. ``("finish",)``); an empty
    tuple means every site is eligible.  ``max_rank_failures`` /
    ``max_corruptions`` cap the totals so a scenario stays recoverable
    (``None`` = unlimited).
    """

    name: str = "custom"
    rank_failure_prob: float = 0.0
    message_drop_prob: float = 0.0
    message_corrupt_prob: float = 0.0
    kernel_corrupt_prob: float = 0.0
    nan_fraction: float = 0.5
    max_rank_failures: int | None = 1
    max_corruptions: int | None = None
    site_filter: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for label in ("rank_failure_prob", "message_drop_prob",
                      "message_corrupt_prob", "kernel_corrupt_prob", "nan_fraction"):
            _check_prob(getattr(self, label), label)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for reports and determinism checks."""

    kind: str  # "rank_failure" | "message_drop" | "corruption"
    site: str
    span: str
    draw: int  # value of FaultPlan.draws when the event fired
    rank: int | None = None
    detail: str = ""


#: named scenarios for the chaos harness (``repro chaos`` cycles these).
SCENARIOS: dict[str, FaultSpec] = {
    "clean": FaultSpec(name="clean"),
    "rank-failure": FaultSpec(name="rank-failure", rank_failure_prob=0.004),
    "message-drop": FaultSpec(name="message-drop", message_drop_prob=0.05,
                              max_rank_failures=0),
    "message-corrupt": FaultSpec(name="message-corrupt", message_corrupt_prob=0.02,
                                 max_rank_failures=0, max_corruptions=2),
    "kernel-corrupt": FaultSpec(name="kernel-corrupt", kernel_corrupt_prob=0.05,
                                max_rank_failures=0, max_corruptions=2),
    "chaos": FaultSpec(name="chaos", rank_failure_prob=0.002, message_drop_prob=0.02,
                       message_corrupt_prob=0.01, kernel_corrupt_prob=0.02,
                       max_rank_failures=1, max_corruptions=3),
}


class FaultPlan:
    """A seeded stream of fault decisions (see module docstring)."""

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.draws = 0
        self.events: list[FaultEvent] = []
        self._rank_failures = 0
        self._corruptions = 0

    # ------------------------------------------------------------------ #

    def _chance(self, prob: float) -> bool:
        """One Bernoulli draw; always advances the stream when prob > 0."""
        if prob <= 0.0:
            return False
        self.draws += 1
        return bool(self._rng.random() < prob)

    def _site_allowed(self, site: str) -> bool:
        flt = self.spec.site_filter
        return not flt or any(s in site for s in flt)

    def _record(self, kind: str, site: str, span: str, rank: int | None = None,
                detail: str = "") -> None:
        self.events.append(FaultEvent(kind, site, span, self.draws, rank, detail))

    # ------------------------------------------------------------------ #
    # draw entry points (called by the injector)

    def draw_rank_failure(self, ranks: Sequence[int], site: str, span: str) -> int | None:
        """Maybe kill one member of ``ranks``; returns the victim or None."""
        cap = self.spec.max_rank_failures
        if cap is not None and self._rank_failures >= cap:
            return None
        if not ranks or not self._site_allowed(site):
            return None
        if not self._chance(self.spec.rank_failure_prob):
            return None
        self.draws += 1
        victim = int(ranks[int(self._rng.integers(len(ranks)))])
        self._rank_failures += 1
        self._record("rank_failure", site, span, rank=victim)
        return victim

    def draw_message_drop(self, site: str, span: str) -> bool:
        """Maybe drop a collective's payload (transport retransmits)."""
        if not self._site_allowed(site):
            return False
        if not self._chance(self.spec.message_drop_prob):
            return False
        self._record("message_drop", site, span)
        return True

    def corrupt(self, array: np.ndarray, site: str, span: str, prob: float) -> bool:
        """Maybe flip one entry of ``array`` *in place* (NaN or a large
        additive bump, per ``nan_fraction``); returns True if it fired."""
        cap = self.spec.max_corruptions
        if cap is not None and self._corruptions >= cap:
            return False
        if array.size == 0 or not self._site_allowed(site):
            return False
        if not self._chance(prob):
            return False
        self.draws += 2
        index = int(self._rng.integers(array.size))
        if self._rng.random() < self.spec.nan_fraction:
            array.flat[index] = np.nan
            detail = f"entry {index} -> NaN"
        else:
            bump = BIT_FLIP_SCALE * (1.0 + float(np.abs(array).max()))
            array.flat[index] = float(array.flat[index]) + bump
            detail = f"entry {index} += {bump:.3g}"
        self._corruptions += 1
        self._record("corruption", site, span, detail=detail)
        return True

    # ------------------------------------------------------------------ #

    def summary(self) -> str:
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        parts = [f"{k}={v}" for k, v in sorted(kinds.items())]
        return (f"FaultPlan({self.spec.name!r}, seed={self.seed}): "
                f"{self.draws} draws, {len(self.events)} events"
                + (f" ({', '.join(parts)})" if parts else ""))

    def __repr__(self) -> str:
        return self.summary()
