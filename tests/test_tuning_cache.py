"""Tests for the persistent δ-autotuning cache (``repro.serve.cache``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bsp.params import MachineParams
from repro.model.tuning import best_delta
from repro.serve.cache import (
    CACHE_VERSION,
    TuningCache,
    cache_key,
    cached_best_delta,
    cached_replan_delta,
    model_fingerprint,
)

SRC_DIR = str(Path(repro.__file__).parents[1])


def make_params(**overrides) -> MachineParams:
    base = dict(gamma=1.0, beta=20.0, nu=2.0, alpha=3000.0, memory_words=float(2**20))
    base.update(overrides)
    return MachineParams(**base)


class TestKeying:
    def test_params_enter_the_key(self):
        a = cache_key("best_delta", "eig2p5d", 64, 16, make_params())
        b = cache_key("best_delta", "eig2p5d", 64, 16, make_params(beta=21.0))
        assert a != b

    def test_shape_and_kind_enter_the_key(self):
        p = make_params()
        keys = {
            cache_key("best_delta", "eig2p5d", 64, 16, p),
            cache_key("best_delta", "eig2p5d", 64, 8, p),
            cache_key("best_delta", "eig2p5d", 32, 16, p),
            cache_key("plan", "eig2p5d", 64, 16, p),
            cache_key("best_delta", "ca_sbr", 64, 16, p),
        }
        assert len(keys) == 5

    def test_machine_param_change_invalidates_per_key(self):
        """Changing any machine parameter misses — the old entry is unreachable."""
        cache = TuningCache()
        params = make_params()
        delta, t = cached_best_delta(cache, 64, 16, params)
        assert cache.stats.misses == 1
        # same shape, different α: must re-plan, not reuse the stale δ
        cached_best_delta(cache, 64, 16, make_params(alpha=1.0))
        assert cache.stats.misses == 2
        # and the original shape still hits
        assert cached_best_delta(cache, 64, 16, params) == (delta, t)
        assert cache.stats.hits == 1


class TestPersistence:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        params = make_params()
        first = TuningCache(path)
        delta, t = cached_best_delta(first, 48, 8, params)
        first.save()

        second = TuningCache(path)
        assert second.loaded_entries == 1
        assert cached_best_delta(second, 48, 8, params) == (delta, t)
        assert second.stats.hits == 1 and second.stats.misses == 0

    def test_round_trip_across_processes(self, tmp_path):
        """A store written by another interpreter warms this one."""
        path = tmp_path / "cache.json"
        script = (
            "from repro.serve.cache import TuningCache, cached_best_delta\n"
            "from repro.bsp.params import MachineParams\n"
            "p = MachineParams(gamma=1.0, beta=20.0, nu=2.0, alpha=3000.0,\n"
            "                  memory_words=float(2**20))\n"
            f"c = TuningCache({str(path)!r})\n"
            "print(cached_best_delta(c, 48, 8, p))\n"
            "c.save()\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

        cache = TuningCache(path)
        params = make_params()
        got = cached_best_delta(cache, 48, 8, params)
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        # the child printed the tuple it computed; ours must match it
        assert str(got) == proc.stdout.strip()
        assert got == best_delta(48, 8, params)

    def test_save_is_atomic_no_temp_litter(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        cached_best_delta(cache, 32, 4, make_params())
        cache.save()
        cache.save()
        assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]
        assert json.loads(path.read_text())["version"] == CACHE_VERSION

    def test_in_memory_cache_save_is_noop(self):
        cache = TuningCache()
        assert cache.save() is None


class TestRecovery:
    def test_missing_file_is_a_cold_start(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.json")
        assert len(cache.entries) == 0
        assert cache.stats.load_failures == 0

    def test_truncated_store_recovers_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        full = TuningCache(path)
        cached_best_delta(full, 48, 8, make_params())
        full.save()
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn write / disk-full

        cache = TuningCache(path)
        assert len(cache.entries) == 0
        assert cache.stats.load_failures == 1
        # still fully usable: plans fresh, then persists a clean store
        cached_best_delta(cache, 48, 8, make_params())
        cache.save()
        assert TuningCache(path).loaded_entries > 0

    @pytest.mark.parametrize(
        "blob",
        [
            "not json at all{{{",
            '"a bare string"',
            json.dumps({"version": "something/else", "entries": {}}),
            json.dumps({"version": CACHE_VERSION}),  # fingerprint + entries missing
        ],
    )
    def test_corrupt_or_foreign_stores_recover_empty(self, tmp_path, blob):
        path = tmp_path / "cache.json"
        path.write_text(blob)
        cache = TuningCache(path)
        assert len(cache.entries) == 0
        assert cache.stats.load_failures + cache.stats.stale_drops == 1

    def test_model_fingerprint_change_discards_store(self, tmp_path):
        """A store tuned under an older cost model is dropped wholesale."""
        path = tmp_path / "cache.json"
        old = TuningCache(path, fingerprint="feedfacedeadbeef")
        old.put("plan|eig2p5d|n=64|p=16|stale", {"p": 16, "delta": 0.9})
        old.save()

        cache = TuningCache(path)  # current model fingerprint
        assert len(cache.entries) == 0
        assert cache.stats.stale_drops == 1
        assert cache.stats.load_failures == 0

    def test_fingerprint_is_stable_within_a_model(self):
        assert model_fingerprint() == model_fingerprint()


class TestMemoization:
    def test_infeasible_shape_negatively_cached(self):
        cache = TuningCache()
        tiny = make_params(memory_words=64.0)
        with pytest.raises(ValueError) as first:
            cached_best_delta(cache, 256, 4, tiny)
        with pytest.raises(ValueError) as second:
            cached_best_delta(cache, 256, 4, tiny)
        # the replay serves the original message from the store
        assert str(second.value) == str(first.value)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_replan_delta_is_total_and_memoized(self):
        cache = TuningCache()
        tiny = make_params(memory_words=64.0)
        assert cached_replan_delta(cache, 256, 1, make_params()) == 0.5
        assert cached_replan_delta(cache, 256, 4, tiny) == 0.5  # infeasible -> fallback
        d = cached_replan_delta(cache, 64, 16, make_params())
        assert cached_replan_delta(cache, 64, 16, make_params()) == d

    @given(
        n=st.sampled_from([8, 12, 16, 24, 32, 48, 64, 96]),
        p=st.sampled_from([1, 2, 4, 8, 16]),
        alpha=st.sampled_from([1.0, 100.0, 3000.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_equals_fresh(self, n, p, alpha):
        """Property: a cache hit returns exactly what a fresh sweep would."""
        params = make_params(alpha=alpha)
        cache = TuningCache()
        try:
            fresh = best_delta(n, p, params)
        except ValueError:
            with pytest.raises(ValueError):
                cached_best_delta(cache, n, p, params)
            return
        assert cached_best_delta(cache, n, p, params) == fresh  # miss path
        assert cached_best_delta(cache, n, p, params) == fresh  # hit path
        assert cache.stats.hits == 1
