import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantree import (
    DegenerateStatistic,
    DimensionMismatch,
    PointSet,
    build_mst_kruskal,
    compare,
    connection_lengths,
    connection_ratios,
    preset_spec,
    generate,
)

from bruteforce import (
    connection_lengths_exhaustive,
    connection_ratios_exhaustive,
    nearest_edge_mean_lengths_exhaustive,
)


def tree_of(coords, weights=None):
    return build_mst_kruskal(PointSet(coords, weights=weights))


class TestConnectionLengths:
    def test_identical_trees_zero(self):
        rng = np.random.default_rng(1)
        t = tree_of(rng.random((50, 2)))
        lengths, _ = connection_lengths(t, t)
        np.testing.assert_array_equal(lengths, np.zeros(50))

    def test_single_point_trees(self):
        a = tree_of([[0.0, 0.0]])
        b = tree_of([[3.0, 4.0]])
        assert connection_lengths(a, b)[0][0] == 5.0
        assert connection_lengths(b, a)[0][0] == 5.0

    def test_directional_asymmetry_dense_sparse(self):
        dense = build_mst_kruskal(generate(preset_spec("dense-grid", 3)))
        sparse = build_mst_kruskal(generate(preset_spec("sparse-grid", 4)))
        c_dense = connection_lengths(dense, sparse)[0]
        c_sparse = connection_lengths(sparse, dense)[0]
        # the dense grid sits inside the sparse one, so its vertices are
        # always near a sparse vertex; the converse has a long tail
        assert c_dense.mean() < c_sparse.mean()
        assert c_sparse.max() > 5.0 * c_dense.max()

    def test_weights_carried_from_subject(self):
        subject = tree_of([[0.0, 0.0], [1.0, 0.0]], weights=[0.5, 2.0])
        _, weights = connection_lengths(subject, tree_of([[5.0, 5.0]]))
        np.testing.assert_array_equal(weights, [0.5, 2.0])
        res = connection_ratios(subject, tree_of([[5.0, 5.0], [6.0, 5.0]]), k=1)
        np.testing.assert_array_equal(res.weights, [0.5, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            connection_lengths(tree_of([[0.0, 0.0]]), tree_of([0.0, 1.0]))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        a_pts = rng.random((30, 2))
        b_pts = rng.random((40, 2)) + 0.5
        base = connection_lengths(tree_of(a_pts), tree_of(b_pts))[0]
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -2.0])
        moved = connection_lengths(
            tree_of(a_pts @ rot.T + shift), tree_of(b_pts @ rot.T + shift)
        )[0]
        np.testing.assert_allclose(moved, base, rtol=1e-9)

    def test_matches_exhaustive_when_accelerated(self):
        rng = np.random.default_rng(3)
        subject = tree_of(rng.random((1000, 2)))
        reference = tree_of(rng.random((1000, 2)))
        exhaustive = connection_lengths_exhaustive(subject, reference)
        accelerated = connection_lengths(subject, reference)[0]
        np.testing.assert_array_equal(exhaustive, accelerated)

    def test_ratio_matches_exhaustive_when_accelerated(self):
        rng = np.random.default_rng(8)
        subject = tree_of(rng.random((400, 2)))
        reference = tree_of(rng.random((400, 2)))
        exhaustive = connection_ratios_exhaustive(subject, reference, k=5)
        accelerated = connection_ratios(subject, reference, k=5).connection_ratio
        np.testing.assert_array_equal(exhaustive, accelerated)


class TestConnectionRatios:
    def test_identical_trees_zero(self):
        rng = np.random.default_rng(4)
        t = tree_of(rng.random((40, 2)))
        for k in (1, 3, 5):
            res = connection_ratios(t, t, k=k)
            np.testing.assert_array_equal(res.connection_ratio, np.zeros(40))

    def test_hand_built_chain(self):
        # subject vertex 10 above a unit chain: local mean of the 2 nearest
        # edges is 1, so the ratio equals the connection length
        reference = tree_of([[float(i), 0.0] for i in range(6)])
        subject = tree_of([[2.0, 10.0]])
        res = connection_ratios(subject, reference, k=2)
        assert res.connection_length[0] == pytest.approx(10.0, rel=1e-12)
        assert res.connection_ratio[0] == pytest.approx(10.0, rel=1e-12)

    def test_distance_tie_goes_to_lowest_edge_index(self):
        # edge 6 (length sqrt 17) is nearest; the midpoints of edge 0 (length 1)
        # and edge 5 (length sqrt 13) tie for second, and edge 0 must win
        reference = tree_of(
            [[-4, 0], [-2, 2], [1, -2], [1, 4], [2, 0], [3, -4], [3, 0], [4, 4]]
        )
        subject = tree_of([[1.0, 1.5]])
        res = connection_ratios(subject, reference, k=2)
        local_mean = (1.0 + np.sqrt(17.0)) / 2.0
        assert res.connection_ratio[0] == res.connection_length[0] / local_mean
        np.testing.assert_array_equal(
            res.connection_ratio, connection_ratios_exhaustive(subject, reference, k=2)
        )

    def test_tie_wider_than_first_query(self):
        # twenty midpoints at distance exactly 25 from the query, more than the
        # first kd-tree query returns, so the lowest tied index needs a wider
        # one; the far points spread the midpoints over several kd-tree leaves
        ring = np.array([(0, 25), (7, 24), (15, 20), (20, 15), (24, 7)], float)
        ring = np.vstack([ring, -ring, ring * [1, -1], ring * [-1, 1]])
        rng = np.random.default_rng(12)
        query = np.zeros((1, 2))
        for _ in range(20):
            far = rng.uniform(30.0, 60.0, (40, 2))
            midpoints = np.vstack([[[0.5, 0.0]], rng.permutation(np.vstack([ring, far]))])
            lengths = rng.random(len(midpoints))
            for k in (2, 3):
                np.testing.assert_array_equal(
                    compare._nearest_edge_mean_lengths(query, midpoints, lengths, k),
                    nearest_edge_mean_lengths_exhaustive(query, midpoints, lengths, k),
                )

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 3),
        sizes=st.tuples(st.integers(2, 120), st.integers(2, 120)),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 0.5]),
        k=st.integers(1, 8),
        edge_pool=st.sampled_from(["reference", "subject"]),
    )
    def test_integer_inputs_match_exhaustive(self, dim, sizes, seed, offset, k, edge_pool):
        # small integer coordinates make distance ties common and every
        # distance exact, whatever order the squares are summed in; up to
        # 120 points spread the edges over several kd-tree leaves
        rng = np.random.default_rng(seed)
        subject = tree_of(rng.integers(-6, 7, (sizes[0], dim)).astype(float))
        reference = tree_of(rng.integers(-6, 7, (sizes[1], dim)) + offset)
        res = connection_ratios(subject, reference, k=k, edge_pool=edge_pool)
        np.testing.assert_array_equal(
            res.connection_length, connection_lengths_exhaustive(subject, reference)
        )
        np.testing.assert_array_equal(
            res.connection_ratio,
            connection_ratios_exhaustive(subject, reference, k, edge_pool),
        )

    def test_k_larger_than_pool_uses_all(self):
        reference = tree_of([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])  # lengths 1 and 2
        subject = tree_of([[0.0, 6.0]])
        res = connection_ratios(subject, reference, k=100)
        assert res.connection_ratio[0] == pytest.approx(6.0 / 1.5, rel=1e-12)

    def test_c_independent_of_k(self):
        rng = np.random.default_rng(5)
        subject = tree_of(rng.random((30, 2)))
        reference = tree_of(rng.random((30, 2)))
        r1 = connection_ratios(subject, reference, k=1)
        r5 = connection_ratios(subject, reference, k=5)
        np.testing.assert_array_equal(r1.connection_length, r5.connection_length)
        assert not np.array_equal(r1.connection_ratio, r5.connection_ratio)

    def test_scaling_both_trees(self):
        rng = np.random.default_rng(6)
        a = rng.random((25, 2))
        b = rng.random((35, 2)) + 0.2
        base = connection_ratios(tree_of(a), tree_of(b), k=4)
        s = 11.0
        scaled = connection_ratios(tree_of(a * s), tree_of(b * s), k=4)
        np.testing.assert_allclose(scaled.connection_length, base.connection_length * s, rtol=1e-9)
        np.testing.assert_allclose(scaled.connection_ratio, base.connection_ratio, rtol=1e-9)

    def test_edge_pool_selection(self):
        rng = np.random.default_rng(7)
        subject = tree_of(rng.random((20, 2)))
        reference = tree_of(rng.random((20, 2)) * 10)
        ref_pool = connection_ratios(subject, reference, k=3, edge_pool="reference")
        sub_pool = connection_ratios(subject, reference, k=3, edge_pool="subject")
        np.testing.assert_array_equal(
            ref_pool.connection_ratio,
            connection_ratios_exhaustive(subject, reference, 3, "reference"),
        )
        np.testing.assert_array_equal(
            sub_pool.connection_ratio, connection_ratios_exhaustive(subject, reference, 3, "subject")
        )
        assert not np.array_equal(ref_pool.connection_ratio, sub_pool.connection_ratio)

    def test_empty_pool_raises(self):
        single = tree_of([[0.0, 0.0]])
        other = tree_of([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateStatistic):
            connection_ratios(other, single, k=2, edge_pool="reference")
        with pytest.raises(DegenerateStatistic):
            connection_ratios(single, other, k=2, edge_pool="subject")

    def test_samples_too_far_apart_raise(self):
        near, far = tree_of([[1e200, 0.0], [1e200, 1.0]]), tree_of([[-1e200, 0.0], [-1e200, 2.0]])
        for subject, reference in ((near, far), (far, near)):
            with pytest.raises(DegenerateStatistic, match="too far apart"):
                connection_ratios(subject, reference)
        assert connection_ratios(near, near).connection_length.tolist() == [0.0, 0.0]

    def test_zero_local_mean_gives_inf_sentinel(self):
        reference = tree_of([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])  # degenerate, zero lengths
        subject = tree_of([[4.0, 5.0]])
        res = connection_ratios(subject, reference, k=2)
        assert np.isinf(res.connection_ratio[0])
        assert np.isinf(res.connection_ratio).sum() == 1

    def test_invalid_arguments(self):
        t = tree_of([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            connection_ratios(t, t, k=0)
        with pytest.raises(ValueError):
            connection_ratios(t, t, edge_pool="nearest")

    def test_sparse_subject_has_heavier_ratio_tail(self):
        dense = build_mst_kruskal(generate(preset_spec("dense-grid", 8)))
        sparse = build_mst_kruskal(generate(preset_spec("sparse-grid", 9)))
        r_sparse = connection_ratios(sparse, dense).connection_ratio
        r_dense = connection_ratios(dense, sparse).connection_ratio
        assert np.percentile(r_sparse, 95) > np.percentile(r_dense, 95)
