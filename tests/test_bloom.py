"""Bloom filter tests — Section 5 dictionary guards."""

import pytest

from repro.errors import StorageError
from repro.storage.bloom import BloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        items = [f"value-{i}" for i in range(500)]
        bloom = BloomFilter.build(items)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_near_target(self):
        items = [f"member-{i}" for i in range(2000)]
        bloom = BloomFilter.build(items, fpp=0.01)
        probes = [f"absent-{i}" for i in range(5000)]
        false_positives = sum(1 for p in probes if p in bloom)
        assert false_positives / len(probes) < 0.03

    def test_definitely_absent(self):
        bloom = BloomFilter.build([f"m{i}" for i in range(100)], fpp=0.01)
        misses = sum(
            1 for i in range(1000) if not bloom.might_contain(f"zz-{i}")
        )
        assert misses > 950

    def test_works_with_mixed_types(self):
        bloom = BloomFilter.build([1, 2.5, "three", None])
        assert 1 in bloom
        assert 2.5 in bloom
        assert "three" in bloom
        assert None in bloom

    def test_size_scales_with_capacity(self):
        small = BloomFilter.for_capacity(100)
        large = BloomFilter.for_capacity(10_000)
        assert large.size_bytes() > small.size_bytes() * 50

    def test_invalid_parameters(self):
        with pytest.raises(StorageError):
            BloomFilter(0, 1)
        with pytest.raises(StorageError):
            BloomFilter.for_capacity(10, fpp=1.5)

    def test_deterministic_across_instances(self):
        a = BloomFilter(1024, 3)
        b = BloomFilter(1024, 3)
        a.add("hello")
        b.add("hello")
        assert a.might_contain("hello") and b.might_contain("hello")
        assert ("absent" in a) == ("absent" in b)

    def test_n_items_tracked(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add("x")
        bloom.add("y")
        assert bloom.n_items == 2
