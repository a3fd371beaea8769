"""KMV sketch tests — Section 5 "Count Distinct"."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.sketches.hashing import hash_to_unit, hash_value
from repro.sketches.kmv import KmvSketch


class TestHashing:
    def test_deterministic(self):
        assert hash_value("abc") == hash_value("abc")

    def test_type_tagged(self):
        assert hash_value(1) != hash_value("1")

    def test_integral_float_matches_int(self):
        # So 3 and 3.0 count as one distinct value across backends.
        assert hash_value(3) == hash_value(3.0)

    def test_unit_range(self):
        for value in ("a", 1, 2.5, None):
            assert 0.0 <= hash_to_unit(value) < 1.0


class TestKmvSketch:
    def test_exact_below_m(self):
        sketch = KmvSketch(m=100)
        for i in range(50):
            sketch.add(f"v{i}")
        assert sketch.estimate() == 50

    def test_duplicates_ignored(self):
        sketch = KmvSketch(m=100)
        for __ in range(10):
            for i in range(30):
                sketch.add(i)
        assert sketch.estimate() == 30

    def test_estimate_accuracy_at_scale(self):
        n = 20_000
        sketch = KmvSketch(m=1024)
        for i in range(n):
            sketch.add(f"value-{i}")
        # Relative error ~ 1/sqrt(m) ≈ 3%; allow 4 sigma.
        assert abs(sketch.estimate() - n) / n < 0.13

    def test_larger_m_reduces_error(self):
        n = 30_000
        errors = {}
        for m in (64, 4096):
            sketch = KmvSketch(m=m)
            for i in range(n):
                sketch.add(i)
            errors[m] = abs(sketch.estimate() - n) / n
        assert errors[4096] < errors[64]

    def test_merge_equals_union(self):
        a = KmvSketch(m=256)
        b = KmvSketch(m=256)
        union = KmvSketch(m=256)
        for i in range(3000):
            target = a if i % 2 else b
            target.add(i)
            union.add(i)
        a.add_hash_array(b.hashes)  # how the computation tree merges sketches
        assert a.estimate() == union.estimate()
        assert a.hashes.tolist() == union.hashes.tolist()

    def test_invalid_m(self):
        with pytest.raises(ExecutionError):
            KmvSketch(0)

    def test_add_hash_array_matches_scalar_adds(self):
        values = [f"x{i}" for i in range(5000)]
        hashes = np.array([hash_to_unit(v) for v in values])
        vector = KmvSketch(m=128)
        vector.add_hash_array(hashes)
        scalar = KmvSketch(m=128)
        for value in values:
            scalar.add(value)
        assert vector.estimate() == scalar.estimate()
        assert vector.threshold == scalar.threshold

    def test_threshold_monotone_nonincreasing(self):
        sketch = KmvSketch(m=16)
        last = sketch.threshold
        for i in range(500):
            sketch.add(i)
            assert sketch.threshold <= last
            last = sketch.threshold

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(), max_size=200))
    def test_exact_when_not_full_property(self, values):
        sketch = KmvSketch(m=1000)
        for value in values:
            sketch.add(value)
        assert sketch.estimate() == len(values)


class _ScalarKmv:
    """Insert-one-hash reference: the sorted list + member set the sketch was."""

    def __init__(self, m):
        self.m, self.hashes, self.members = m, [], set()

    def add_hash(self, hashed):
        threshold = self.hashes[-1] if len(self.hashes) >= self.m else 1.0
        if hashed >= threshold or hashed in self.members:
            return
        bisect.insort(self.hashes, hashed)
        self.members.add(hashed)
        if len(self.hashes) > self.m:
            self.members.discard(self.hashes.pop())

    def estimate(self):
        if len(self.hashes) < self.m:
            return len(self.hashes)
        return int(round(self.m / self.hashes[-1]))


# Few distinct hashes, so streams repeat them within and across batches.
_HASH_POOL = np.random.default_rng(2012).random(64)
_batches = st.lists(
    st.lists(st.integers(0, _HASH_POOL.size - 1), max_size=40), max_size=6
)


class TestArraySketchMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 8, 1024]), _batches, _batches, st.booleans())
    def test_streams_and_merges(self, m, left, right, vectors):
        def fill(batches):
            sketch, reference = KmvSketch(m), _ScalarKmv(m)
            for batch in batches:
                hashes = _HASH_POOL[batch]
                if vectors:
                    sketch.add_hash_array(hashes)
                else:
                    for hashed in hashes.tolist():
                        sketch.add_hash(hashed)
                for hashed in hashes.tolist():
                    reference.add_hash(hashed)
            return sketch, reference

        def same(sketch, reference):
            assert sketch._hashes.dtype == np.float64
            assert sketch._hashes.tolist() == reference.hashes
            assert len(sketch) == len(reference.hashes)
            assert sketch.estimate() == reference.estimate()

        (sketch, reference), (other, other_reference) = fill(left), fill(right)
        same(sketch, reference)
        kept = sketch.hashes
        sketch.add_hash_array(other.hashes)  # a merge: the other's retained hashes
        for hashed in other_reference.hashes:
            reference.add_hash(hashed)
        same(sketch, reference)
        same(other, other_reference)  # merging reads the other side only
        assert kept.tolist() == fill(left)[1].hashes  # a fold replaces, never writes
