"""Linearity and API tests for the array-backed sketch engine.

Absolute cell values and samples are pinned by the ``sketches`` group
of ``tests/golden/digests.json``.  Here: cancellation to zero, range
errors, clone independence, merges that do not mutate, grouped ==
per-component decoding, and the linearity law (sketch of a sum == sum
of sketches).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.tensor import SketchTensor, decode_planes_many
from repro.graphgen import gnm_graph


def _random_updates(rng, universe, count):
    idx = rng.integers(0, universe, size=count)
    dlt = rng.integers(-4, 5, size=count)
    return idx.astype(np.int64), dlt.astype(np.int64)


class TestScalarTensorParity:
    """Cancellation, range errors and grouped decoding on the one engine.

    The class and test names are older than the single engine; they are
    kept so that recorded test ids stay valid."""

    def test_cancellation_to_zero_both_backends(self):
        s = L0Sampler(200, seed=4)
        for i in range(30):
            s.update(i, 2)
            s.update(i, -2)
        assert s.is_zero()
        assert s.sample() is None

    def test_out_of_range_update_both_backends(self):
        with pytest.raises(IndexError):
            L0Sampler(10, seed=0).update(10, 1)

    @pytest.mark.parametrize("leg", ["numpy", "native"])
    def test_out_of_range_row_is_refused_before_ingest(self, leg, monkeypatch):
        """The ingest kernel indexes the cell tensors by row, so a row
        outside ``[0, rows)`` fails before it runs and no cell moves."""
        import repro.kernels as K
        import repro.sketch.tensor as tensor_mod

        ingest = getattr(K.REGISTRY["sketch_ingest"], f"{leg}_impl")
        if ingest is None:
            pytest.skip("native kernel backend unavailable in this environment")
        monkeypatch.setattr(tensor_mod, "_k_sketch_ingest", ingest)
        t = SketchTensor(64, [1, 2], repetitions=2, slots=2)
        t.update_many([0, 1], [3, 5], [1, 2], row=1)
        before = [a.copy() for a in (t.s0, t.s1, t.fp)]
        for row in (t.rows, -1, 2**20):
            with pytest.raises(IndexError):
                t.update_many([0, 1], [3, 5], [1, 2], row=row)
        for a, b in zip(before, (t.s0, t.s1, t.fp)):
            assert np.array_equal(a, b)

    def test_vertex_incidence_grouped_matches_per_component(self):
        g = gnm_graph(12, 30, seed=3)
        sk = VertexIncidenceSketch(g, t=2, seed=5)
        labels = np.random.default_rng(1).integers(0, 4, size=g.n)
        grouped = sk.sample_cut_edges(labels, row=1)
        for part in np.unique(labels).tolist():
            members = np.flatnonzero(labels == part)
            assert grouped[part] == sk.sample_cut_edge(members, row=1)


class TestLinearity:
    """Merge-then-sample equals sketch-of-sum (the AGM linearity law)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=799),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_then_sample_equals_sketch_of_sum(self, seed, data):
        universe = 800
        idx = np.asarray([d[0] for d in data], dtype=np.int64)
        dlt = np.asarray([d[1] for d in data], dtype=np.int64)
        half = np.asarray([d[2] for d in data], dtype=bool)
        a = L0Sampler(universe, seed=seed)
        b = L0Sampler(universe, seed=seed)
        whole = L0Sampler(universe, seed=seed)
        a.update_many(idx[half], dlt[half])
        b.update_many(idx[~half], dlt[~half])
        whole.update_many(idx, dlt)
        a.merge(b)
        ta, tw = a._tensor, whole._tensor
        assert (ta.s0 == tw.s0).all()
        assert (ta.s1 == tw.s1).all()
        assert (ta.fp == tw.fp).all()
        assert a.sample() == whole.sample()
        assert a.is_zero() == whole.is_zero()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_slot_sum_equals_direct_sketch(self, seed):
        """Summing slot planes == sketching the summed vector directly."""
        rng = np.random.default_rng(seed)
        multi = SketchTensor(600, [seed], repetitions=5, slots=5)
        single = SketchTensor(600, [seed], repetitions=5, slots=1)
        slots = rng.integers(0, 5, size=70)
        idx, dlt = _random_updates(rng, 600, 70)
        multi.update_many(slots, idx, dlt)
        single.update_many(0, idx, dlt)
        s0, s1, fp = multi.merged_planes(np.arange(5), row=0)
        assert (s0 == single.s0[0, 0]).all()
        assert (s1 == single.s1[0, 0]).all()
        assert (fp == single.fp[0, 0]).all()
        assert multi.sample_merged(np.arange(5), 0) == single.sample(0, 0)


class TestCloneNotDeepcopy:
    def test_sampler_clone_independent_both_backends(self):
        s = L0Sampler(300, seed=3)
        s.update(7, 2)
        t = s.clone()
        t.update(9, 5)
        assert s.sample() == (7, 2)
        got = t.sample()
        assert got in ((7, 2), (9, 5))

    def test_merged_sketch_does_not_mutate_sketch(self):
        g = gnm_graph(10, 20, seed=1)
        sk = VertexIncidenceSketch(g, t=1, seed=2)
        before = sk.sample_cut_edge(np.array([0]), row=0)
        sk.merged_sketch(np.array([0, 1, 2]), row=0)
        assert sk.sample_cut_edge(np.array([0]), row=0) == before


class TestDecodePlanes:
    def test_group_decode_matches_single(self):
        t = SketchTensor(500, [11], repetitions=4, slots=6)
        rng = np.random.default_rng(2)
        slots = rng.integers(0, 6, size=50)
        idx, dlt = _random_updates(rng, 500, 50)
        t.update_many(slots, idx, dlt)
        labels = np.array([0, 0, 1, 1, 2, 2])
        s0, s1, fp = t.grouped_planes(labels, 3, row=0)
        many = decode_planes_many(s0, s1, fp, t.z[0], t.universe)
        for gi, members in enumerate([[0, 1], [2, 3], [4, 5]]):
            assert many[gi] == t.sample_merged(np.asarray(members), 0)

    def test_empty_tensor_decodes_none(self):
        t = SketchTensor(100, [0], repetitions=3, slots=2)
        assert t.sample(0, 0) is None
        assert t.sample_merged(np.array([0, 1]), 0) is None
        assert t.is_zero()
