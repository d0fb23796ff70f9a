"""Deterministic log-bucket latency sketches.

A :class:`LatencySketch` is a DDSketch-style histogram over exponentially
spaced buckets with a fixed relative accuracy: every recorded value ``v``
falls in bucket ``k = ceil(log_gamma(v))`` where ``gamma = (1+a)/(1-a)``,
so any rank-based quantile read back from the sketch is within relative
error ``a`` of the exact order statistic.

Unlike sampling sketches there is no randomness anywhere: observing the
same multiset of values (in any order) produces the identical bucket map,
so the per-SLO-class latency sketches in ``telemetry.json`` are bit-stable
across reruns and safe to gate with exact equality.  All state is native
python ints/floats — ``json.dumps`` round-trips it exactly.
"""

from __future__ import annotations

import math

#: default relative accuracy (1%): p99 reads back within 1% of exact
DEFAULT_REL_ACCURACY = 0.01


class LatencySketch:
    """Mergeable log-bucket histogram with deterministic quantiles."""

    def __init__(self, rel_accuracy: float = DEFAULT_REL_ACCURACY):
        if not 0.0 < rel_accuracy < 1.0:
            raise ValueError(f"rel_accuracy must be in (0, 1), got {rel_accuracy}")
        self.rel_accuracy = float(rel_accuracy)
        self.gamma = (1.0 + self.rel_accuracy) / (1.0 - self.rel_accuracy)
        self._log_gamma = math.log(self.gamma)
        #: bucket index -> count, for strictly positive values
        self.buckets: dict[int, int] = {}
        #: values <= 0 (latencies can be exactly 0 for instant jobs)
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma - 1e-12))

    def observe(self, value: float) -> None:
        """Record one value (order-independent, deterministic)."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= 0.0:
            self.zero_count += 1
            return
        k = self._index(value)
        self.buckets[k] = self.buckets.get(k, 0) + 1

    def quantile(self, q: float) -> float:
        """Rank-``q`` value (bucket upper bound: within ``rel_accuracy``
        of the exact order statistic).  Returns 0.0 on an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # nearest-rank (1-based) over zero bucket then ascending log buckets
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for k in sorted(self.buckets):
            seen += self.buckets[k]
            if seen >= rank:
                return self.gamma**k
        return self.max  # unreachable unless float dust; cap at observed max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON document: bucket map keyed by stringified index (sorted),
        plus summary stats and canonical quantiles."""
        return {
            "rel_accuracy": self.rel_accuracy,
            "count": self.count,
            "zero_count": self.zero_count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "quantiles": {
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            },
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    def __repr__(self) -> str:
        return (
            f"LatencySketch(count={self.count}, buckets={len(self.buckets)}, "
            f"rel_accuracy={self.rel_accuracy})"
        )
