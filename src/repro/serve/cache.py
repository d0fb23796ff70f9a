"""Persistent δ-autotuning cache: memoized ``best_delta`` / ``replan_delta``.

Planning a request — sweeping the feasible δ grid (and, one level up, the
candidate rank counts) through Theorem IV.4's cost expressions — is real
work that repeats exactly for repeat traffic: a DFT/SCF driver submits
thousands of eigenproblems drawn from a handful of ``(n, p)`` shapes.  The
:class:`TuningCache` memoizes those planning results in a versioned
on-disk JSON store so a warmed service never re-plans a shape it has seen,
in this process or any earlier one.

Keying and invalidation
-----------------------
Entries are keyed on ``(kind, algorithm, n, p, machine-params)`` where the
machine parameters enter via :meth:`repro.bsp.params.MachineParams.fingerprint`
— change any of γ, β, ν, α, M, H and every lookup misses, because the key
itself changes.  The *store* additionally carries a fingerprint of
:func:`repro.model.tuning.tuning_signature` (the δ grid and the lemma
registry's leading terms): if the cost model shipped with the repo drifts,
the whole file is silently discarded on load and rebuilt — a stale δ from
an old model is worse than a cold cache.

Durability
----------
Writes are atomic (temp file + ``os.replace`` in the destination
directory), so a reader never observes a half-written store.  Loads are
tolerant: a missing, truncated, corrupt, or wrong-version file degrades to
an empty cache (counted in :attr:`CacheStats.load_failures`), never an
exception — the cache is an accelerator, not a dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bsp.params import MachineParams
from repro.model.tuning import best_delta, tuning_signature

#: on-disk schema identifier; bump on any incompatible layout change
CACHE_VERSION = "repro.serve.tuning-cache/1"


def model_fingerprint() -> str:
    """Hex digest of everything cached plans depend on besides their keys."""
    doc = {"version": CACHE_VERSION, "tuning": tuning_signature()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cache_key(kind: str, algorithm: str, n: int, p: int, params: MachineParams) -> str:
    """The store key of one memoized planning result."""
    return f"{kind}|{algorithm}|n={n}|p={p}|{params.fingerprint()}"


@dataclass
class CacheStats:
    """Counters describing one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    load_failures: int = 0  # corrupt/unreadable stores recovered from
    stale_drops: int = 0    # stores discarded for a fingerprint mismatch

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "load_failures": self.load_failures,
            "stale_drops": self.stale_drops,
        }


class TuningCache:
    """A (possibly persistent) memo table for planning results.

    ``path=None`` gives a purely in-memory cache.  With a path, the store
    is loaded eagerly on construction and written back by :meth:`save`
    (callers decide when — typically once per batch, not per entry).
    """

    def __init__(self, path: str | Path | None = None, fingerprint: str | None = None):
        self.path = Path(path) if path is not None else None
        self.fingerprint = fingerprint or model_fingerprint()
        self.entries: dict[str, Any] = {}
        self.stats = CacheStats()
        self.loaded_entries = 0
        if self.path is not None:
            self._load()

    # -------------------------------------------------------------- #
    # persistence

    def _load(self) -> None:
        assert self.path is not None
        try:
            doc = json.loads(self.path.read_text())
        except FileNotFoundError:
            return  # cold start: not an error
        except (OSError, ValueError):
            self.stats.load_failures += 1
            return
        if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
            self.stats.load_failures += 1
            return
        if doc.get("fingerprint") != self.fingerprint:
            # the cost model changed underneath the store: discard wholesale
            self.stats.stale_drops += 1
            return
        entries = doc.get("entries")
        if not isinstance(entries, dict):
            self.stats.load_failures += 1
            return
        self.entries.update(entries)
        self.loaded_entries = len(entries)

    def save(self) -> Path | None:
        """Atomically persist the store (no-op for in-memory caches)."""
        if self.path is None:
            return None
        doc = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "entries": self.entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return self.path

    # -------------------------------------------------------------- #
    # lookups

    def get(self, key: str) -> Any | None:
        value = self.entries.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> Any:
        self.entries[key] = value
        return value


# ------------------------------------------------------------------ #
# memoized planning entry points


def cached_best_delta(
    cache: TuningCache, n: int, p: int, params: MachineParams, algorithm: str = "eig2p5d"
) -> tuple[float, float]:
    """Memoized :func:`repro.model.tuning.best_delta`.

    Infeasible shapes (the n²/p footprint exceeds memory even at δ = 1/2)
    are negatively cached, so repeat traffic of an impossible shape fails
    fast without re-sweeping the grid; the original ``ValueError`` message
    is replayed.
    """
    key = cache_key("best_delta", algorithm, n, p, params)
    value = cache.get(key)
    if value is None:
        try:
            delta, time = best_delta(n, p, params)
        except ValueError as exc:
            cache.put(key, {"infeasible": str(exc)})
            raise
        value = cache.put(key, {"delta": delta, "time": time})
    if "infeasible" in value:
        raise ValueError(value["infeasible"])
    return float(value["delta"]), float(value["time"])


def cached_replan_delta(
    cache: TuningCache, n: int, p: int, params: MachineParams, algorithm: str = "eig2p5d"
) -> float:
    """Memoized :func:`repro.model.tuning.replan_delta` (total: never raises).

    The degraded-machine re-plan runs on the fault-recovery path, where a
    grid has just shrunk and latency matters most — exactly where a warm
    cache pays.
    """
    key = cache_key("replan", algorithm, n, p, params)
    value = cache.get(key)
    if value is None:
        if p <= 1:
            delta = 0.5
        else:
            try:
                delta = cached_best_delta(cache, n, p, params, algorithm)[0]
            except ValueError:
                delta = 0.5
        value = cache.put(key, {"delta": delta})
    return float(value["delta"])
