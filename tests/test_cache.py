"""Cache policy tests — LRU, 2Q, ARC (Section 5 "Improved Cache Heuristics")."""

import pytest

from repro.errors import StorageError
from repro.storage.cache import ArcCache, LruCache, TwoQCache, make_cache


class TestLru:
    def test_hit_and_miss_counting(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_evicts_least_recent(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_weighted_capacity(self):
        cache = LruCache(100)
        cache.put("big", "x", weight=80)
        cache.put("small", "y", weight=30)  # 110 > 100: evict big
        assert "big" not in cache
        assert cache.used == 30

    def test_update_replaces_weight(self):
        cache = LruCache(100)
        cache.put("k", "v", weight=60)
        cache.put("k", "v2", weight=10)
        assert cache.used == 10
        assert cache.get("k") == "v2"

    def test_scan_evicts_working_set(self):
        # The known LRU weakness the paper works around: a one-time
        # scan wipes the hot entry.
        cache = LruCache(10)
        cache.put("hot", 1)
        cache.get("hot")
        for i in range(20):
            cache.put(f"scan-{i}", i)
        assert "hot" not in cache


class TestTwoQ:
    def test_scan_resistance(self):
        # 2Q protects the hot set: keys promoted into Am via the ghost
        # list survive scans, which only churn the A1in FIFO.
        cache = TwoQCache(10, in_fraction=0.2)
        cache.put("hot", 1)
        for i in range(5):
            cache.put(f"warm-{i}", i)  # pushes "hot" into the ghost list
        cache.put("hot", 1)  # ghost hit -> Am
        for i in range(100):
            cache.put(f"scan-{i}", i)
        assert cache.get("hot") == 1

    def test_promotion_via_ghost(self):
        cache = TwoQCache(4, in_fraction=0.25)
        cache.put("x", 1)  # A1in (capacity 1)
        cache.put("y", 2)  # x evicted to ghost
        assert "x" not in cache
        cache.put("x", 10)  # ghost hit: promoted into Am
        for i in range(10):
            cache.put(f"s{i}", i)
        assert cache.get("x") == 10

    def test_capacity_respected(self):
        cache = TwoQCache(5)
        for i in range(50):
            cache.put(i, i)
        assert cache.used <= 5

    def test_invalid_in_fraction(self):
        with pytest.raises(StorageError):
            TwoQCache(10, in_fraction=1.5)


class TestArc:
    def test_second_access_promotes(self):
        cache = ArcCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1  # promoted T1 -> T2
        for i in range(3):
            cache.put(f"x{i}", i)
        assert cache.get("a") == 1  # survived the T1 churn

    def test_scan_resistance(self):
        cache = ArcCache(8)
        cache.put("hot", 1)
        cache.get("hot")  # now in T2
        for i in range(100):
            cache.put(f"scan-{i}", i)
        assert cache.get("hot") == 1

    def test_ghost_hit_adapts_target(self):
        cache = ArcCache(4)
        for i in range(8):
            cache.put(f"k{i}", i)
        before = cache._p
        # Re-inserting an evicted key is a B1 ghost hit -> p grows.
        cache.put("k0", 0)
        assert cache._p >= before

    def test_capacity_respected(self):
        cache = ArcCache(6)
        for i in range(60):
            cache.put(i, i, weight=1.5)
        assert cache.used <= 6 + 1.5  # at most one overweight entry


class TestFactory:
    @pytest.mark.parametrize("policy", ["lru", "2q", "arc"])
    def test_make_cache(self, policy):
        cache = make_cache(policy, 10)
        assert cache.name == policy

    def test_unknown_policy(self):
        with pytest.raises(StorageError):
            make_cache("fifo", 10)

    def test_nonpositive_capacity(self):
        with pytest.raises(StorageError):
            LruCache(0)


class TestHitRates:
    def test_zipf_workload_arc_and_2q_beat_lru_with_scans(self):
        """The Section 5 motivation: scans shouldn't trash the cache."""
        import random

        rng = random.Random(5)
        policies = {name: make_cache(name, 50) for name in ("lru", "2q", "arc")}
        hot_keys = [f"hot-{i}" for i in range(30)]
        scan_id = 0
        for step in range(4000):
            if step % 40 == 39:
                # Periodic one-time scan of 100 cold keys.
                for __ in range(100):
                    scan_id += 1
                    for cache in policies.values():
                        if cache.get(f"cold-{scan_id}") is None:
                            cache.put(f"cold-{scan_id}", 1)
            key = rng.choice(hot_keys)
            for cache in policies.values():
                if cache.get(key) is None:
                    cache.put(key, 1)
        lru_rate = policies["lru"].stats.hit_rate
        assert policies["2q"].stats.hit_rate > lru_rate
        assert policies["arc"].stats.hit_rate > lru_rate
