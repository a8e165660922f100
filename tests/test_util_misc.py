"""Tests for rng plumbing, validation helpers and the resource ledger."""

import numpy as np
import pytest

from repro.util.instrumentation import ResourceLedger, SpaceHighWater
from repro.util.rng import derive_seed, make_rng, spawn
from repro.util.validation import (
    check_epsilon,
    check_positive_weights,
    require,
)


class TestRng:
    def test_make_rng_from_int_deterministic(self):
        a = make_rng(7).integers(0, 1000, 10)
        b = make_rng(7).integers(0, 1000, 10)
        assert np.all(a == b)

    def test_make_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_default_seed_stable(self):
        assert make_rng(None).integers(0, 10**6) == make_rng(None).integers(0, 10**6)

    def test_spawn_independent_and_deterministic(self):
        k1 = [r.integers(0, 10**9) for r in spawn(make_rng(3), 4)]
        k2 = [r.integers(0, 10**9) for r in spawn(make_rng(3), 4)]
        assert k1 == k2
        assert len(set(k1)) == 4

    def test_derive_seed_range(self):
        s = derive_seed(make_rng(0))
        assert 0 <= s < 2**63


class TestValidation:
    def test_epsilon_ok(self):
        assert check_epsilon(0.25) == 0.25

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.5, 2.0])
    def test_epsilon_bad(self, bad):
        with pytest.raises(ValueError):
            check_epsilon(bad)

    def test_epsilon_custom_upper(self):
        assert check_epsilon(0.05, upper=1 / 16) == 0.05
        with pytest.raises(ValueError):
            check_epsilon(0.2, upper=1 / 16)

    def test_positive_weights(self):
        w = check_positive_weights([1.0, 2.0])
        assert w.dtype == np.float64
        with pytest.raises(ValueError):
            check_positive_weights([1.0, 0.0])
        with pytest.raises(ValueError):
            check_positive_weights([1.0, np.inf])

    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestLedger:
    def test_space_high_water(self):
        s = SpaceHighWater()
        s.add(10)
        s.add(5)
        s.release(12)
        assert s.current == 3
        assert s.peak == 15

    def test_release_clamps_at_zero(self):
        s = SpaceHighWater()
        s.add(2)
        s.release(10)
        assert s.current == 0

    def test_ledger_counters(self):
        led = ResourceLedger()
        led.tick_sampling_round("r1")
        led.tick_sampling_round()
        led.tick_refinement(3)
        led.tick_oracle(2)
        led.charge_space(100)
        led.charge_shuffle(50)
        led.charge_stream(7)
        snap = led.snapshot()
        assert snap["sampling_rounds"] == 2
        assert snap["refinement_steps"] == 3
        assert snap["oracle_calls"] == 2
        assert snap["peak_central_space"] == 100
        assert snap["shuffle_words"] == 50
        assert snap["edges_streamed"] == 7
        assert any("r1" in note for note in led.notes)


class TestPercentile:
    def test_nearest_rank_semantics(self):
        from repro.util.instrumentation import percentile

        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile(values, 0) == 10.0  # floored at rank 1
        assert percentile(values, 100) == 40.0
        assert percentile([], 50) is None
        assert percentile([5.0], 99) == 5.0

    def test_reported_value_was_observed(self):
        from repro.util.instrumentation import percentile

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        for q in (25, 50, 75, 90, 95):
            assert percentile(values, q) in values

    def test_domain_check(self):
        from repro.util.instrumentation import percentile

        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCountHistogram:
    def test_observe_and_summaries(self):
        from repro.util.instrumentation import CountHistogram

        h = CountHistogram()
        assert h.mean() is None and h.total == 0
        for v in (1, 3, 3, 8):
            h.observe(v)
        h.observe(3, k=2)
        assert h.as_dict() == {1: 1, 3: 4, 8: 1}
        assert h.total == 6
        assert h.mean() == pytest.approx((1 + 3 * 4 + 8) / 6)
