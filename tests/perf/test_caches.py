"""Unit tests for the trace cache."""

import os

import pytest

from repro.perf.trace_cache import TraceCache, profile_cache_key
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile


class TestProfileCacheKey:
    def test_equal_profiles_equal_keys(self):
        assert profile_cache_key(make_profile()) == profile_cache_key(
            make_profile()
        )

    def test_any_field_changes_key(self):
        base = profile_cache_key(make_profile())
        assert profile_cache_key(make_profile(seed=8)) != base
        assert profile_cache_key(make_profile(num_requests=4001)) != base


class TestTraceCache:
    def test_miss_then_hit_same_object(self):
        cache = TraceCache()
        profile = make_profile()
        first = cache.get(profile)
        second = cache.get(profile)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_trace_matches_direct_generation(self):
        profile = make_profile()
        assert list(TraceCache().get(profile)) == generate_trace(profile)

    def test_seed_is_part_of_the_key(self):
        cache = TraceCache()
        a = cache.get(make_profile(seed=1))
        b = cache.get(make_profile(seed=2))
        assert cache.misses == 2
        assert a != b

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=1)
        cache.get(make_profile(seed=1))
        cache.get(make_profile(seed=2))
        assert len(cache) == 1
        cache.get(make_profile(seed=1))  # evicted -> regenerated
        assert cache.misses == 3

    def test_disk_tier_survives_memory_clear(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        profile = make_profile()
        first = cache.get(profile)
        cache.clear()
        second = cache.get(profile)
        assert first is not second
        assert first == second
        assert cache.hits == 1  # served from disk, not regenerated

    def _damaged_entry(self, tmp_path, damage):
        """A disk entry for ``make_profile()``, rewritten by ``damage``."""
        profile = make_profile()
        TraceCache(disk_dir=str(tmp_path)).get(profile)
        (path,) = tmp_path.glob("*.trace.pkl")
        path.write_bytes(damage(path.read_bytes()))
        return profile, path

    def _assert_regenerated(self, tmp_path, profile, path):
        cache = TraceCache(disk_dir=str(tmp_path))
        assert cache.get(profile) == tuple(generate_trace(profile))
        assert (cache.hits, cache.misses) == (0, 1)
        # The entry was replaced atomically: a fresh process hits it.
        again = TraceCache(disk_dir=str(tmp_path))
        assert again.get(profile) == tuple(generate_trace(profile))
        assert again.hits == 1
        assert os.listdir(tmp_path) == [path.name]

    def test_truncated_disk_entry_is_a_miss(self, tmp_path):
        profile, path = self._damaged_entry(
            tmp_path, lambda data: data[: len(data) // 2]
        )
        self._assert_regenerated(tmp_path, profile, path)

    def test_non_pickle_disk_entry_is_a_miss(self, tmp_path):
        profile, path = self._damaged_entry(
            tmp_path, lambda data: b"not a pickle\n" * 8
        )
        self._assert_regenerated(tmp_path, profile, path)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)
