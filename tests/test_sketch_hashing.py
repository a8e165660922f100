"""Tests for the polynomial hash family."""

import numpy as np
import pytest

from repro.kernels import mulmod
from repro.sketch.hashing import MERSENNE_P, PolyHash, uniform_from_hash


class TestMulmod:
    def test_matches_python_ints_random(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, MERSENNE_P, 500, dtype=np.uint64)
        b = rng.integers(0, MERSENNE_P, 500, dtype=np.uint64)
        got = mulmod(a, b)
        want = (a.astype(object) * b.astype(object)) % MERSENNE_P
        assert all(int(g) == int(w) for g, w in zip(got, want))

    def test_edge_cases(self):
        cases = [0, 1, 2, MERSENNE_P - 1, (1 << 32) - 1, 1 << 32, (1 << 61) - 2]
        for a in cases:
            for b in cases:
                got = int(mulmod(np.uint64(a), np.uint64(b)))
                assert got == (a * b) % MERSENNE_P, (a, b)


class TestPolyHash:
    def test_deterministic_same_seed(self):
        xs = np.arange(1000)
        assert np.all(PolyHash(3, seed=9)(xs) == PolyHash(3, seed=9)(xs))

    def test_different_seeds_differ(self):
        xs = np.arange(100)
        assert not np.all(PolyHash(2, seed=1)(xs) == PolyHash(2, seed=2)(xs))

    def test_range(self):
        vals = PolyHash(2, seed=4)(np.arange(10_000))
        assert int(vals.max()) < MERSENNE_P

    def test_scalar_returns_int(self):
        h = PolyHash(2, seed=5)
        assert isinstance(h(42), int)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            PolyHash(k=0)

    def test_uniformity_rough(self):
        """Mean of mapped uniforms should be near 1/2 (pairwise hash)."""
        u = PolyHash(2, seed=11).uniform(np.arange(20_000))
        assert abs(float(np.mean(u)) - 0.5) < 0.02

    def test_pairwise_independence_collision_rate(self):
        """Collision probability into 256 buckets should be ~1/256."""
        h = PolyHash(2, seed=13)
        b = np.asarray(h(np.arange(5000))) % 256
        # count colliding pairs among consecutive disjoint pairs
        collisions = np.mean(b[0::2] == b[1::2])
        assert collisions < 4.0 / 256 + 0.02

    def test_level_distribution_geometric(self):
        h = PolyHash(2, seed=17)
        lv = h.level(np.arange(40_000), max_level=20)
        # P[level >= 1] should be about 1/2, P[level >= 2] about 1/4
        assert abs(np.mean(lv >= 1) - 0.5) < 0.02
        assert abs(np.mean(lv >= 2) - 0.25) < 0.02

    def test_level_capped(self):
        h = PolyHash(2, seed=19)
        lv = h.level(np.arange(1000), max_level=3)
        assert int(np.max(lv)) <= 3

    def test_uniform_from_hash_range(self):
        u = uniform_from_hash(PolyHash(2, seed=23)(np.arange(100)))
        assert np.all((0 <= u) & (u < 1))
