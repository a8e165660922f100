"""Tests for ℓ0-sampling sketches: recovery, linearity, deletions."""

import numpy as np
import pytest

from repro.sketch.l0_sampler import L0Sampler


class TestL0Sampler:
    def test_samples_support_member(self):
        s = L0Sampler(1000, seed=0)
        support = {17: 3, 402: 1, 999: 5}
        for i, v in support.items():
            s.update(i, v)
        got = s.sample()
        assert got is not None
        assert got[0] in support and got[1] == support[got[0]]

    def test_deletion_shrinks_support(self):
        s = L0Sampler(100, seed=1)
        s.update(10, 4)
        s.update(20, 6)
        s.update(10, -4)
        assert s.sample() == (20, 6)

    def test_empty_after_cancellation(self):
        s = L0Sampler(100, seed=2)
        for i in range(20):
            s.update(i, 3)
            s.update(i, -3)
        assert s.is_zero()
        assert s.sample() is None

    def test_linearity_of_merge(self):
        a = L0Sampler(500, seed=3)
        b = L0Sampler(500, seed=3)
        a.update(7, 2)
        a.update(450, 1)
        b.update(7, -2)
        a.merge(b)
        assert a.sample() == (450, 1)

    def test_merge_rejects_mismatched(self):
        with pytest.raises(ValueError):
            L0Sampler(10, seed=1).merge(L0Sampler(20, seed=1))

    def test_out_of_range_update(self):
        with pytest.raises(IndexError):
            L0Sampler(10, seed=0).update(10, 1)

    def test_update_many_matches_loop(self):
        a = L0Sampler(200, seed=5)
        b = L0Sampler(200, seed=5)
        idx = np.array([3, 50, 150, 3])
        dlt = np.array([1, 2, 3, -1])
        a.update_many(idx, dlt)
        for i, d in zip(idx, dlt):
            b.update(int(i), int(d))
        assert a.sample() == b.sample()

    def test_success_rate_large_support(self):
        """With default repetitions, sampling rarely fails."""
        ok = 0
        for t in range(20):
            s = L0Sampler(5000, seed=100 + t)
            rng = np.random.default_rng(t)
            for i in rng.choice(5000, 50, replace=False):
                s.update(int(i), 1)
            if s.sample() is not None:
                ok += 1
        assert ok >= 18

    def test_space_words_positive_and_additive(self):
        s = L0Sampler(100, seed=0, repetitions=4)
        assert s.space_words() == 4 * s.levels * 3
