from dataclasses import replace

import numpy as np
import pytest

from spantree import (
    DimensionMismatch,
    PointSet,
    build_mst_kruskal,
    connection_lengths,
    rescale_features,
)


def distance(a, b):
    """Euclidean distance between two points, as the package measures it:
    the connection length of a one-point tree to another."""
    one = build_mst_kruskal(PointSet([a]))
    other = build_mst_kruskal(PointSet([b]))
    return float(connection_lengths(one, other)[0][0])


class TestEuclideanDistance:
    def test_3_4_5_triangle(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identical_points(self):
        assert distance((1.5,), (1.5,)) == 0.0

    def test_3d_hand_computed(self):
        # sqrt(3^2 + 4^2 + 0^2) = 5
        assert distance((1.0, 2.0, 3.0), (4.0, 6.0, 3.0)) == pytest.approx(5.0, rel=1e-15)

    def test_symmetry(self):
        a, b = (0.2, -1.0, 4.0), (2.0, 0.5, -3.0)
        assert distance(a, b) == distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance((0.0,), (0.0, 1.0))


class TestPoint:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PointSet([[0.0]], weights=[-1.0])


class TestPointSet:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            PointSet(np.empty((0, 2)))

    def test_1d_input_is_column(self):
        ps = PointSet([0.0, 1.0, 2.0])
        assert ps.dimension == 1 and len(ps) == 3

    def test_defaults(self):
        ps = PointSet([[1.0, 2.0]])
        np.testing.assert_array_equal(ps.weights, [1.0])
        assert ps.labels is None and ps.feature_names is None and ps.dimension == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PointSet([[0.0], [0.0, 1.0]])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            PointSet([[0.0], [1.0]], weights=[1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0, 1.0], [2.0, bad], [3.0, 4.0]])
        with pytest.raises(ValueError, match="finite"):
            PointSet([0.0, bad])

    def test_squared_distances_that_overflow_rejected(self):
        # finite coordinates whose squared distances are not: the kd-tree
        # would find no neighbour and the tree an infinite length
        with pytest.raises(ValueError, match="too far apart"):
            PointSet([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="too far apart"):
            PointSet([1e200, -1e200])
        with pytest.raises(ValueError, match="too far apart"):
            PointSet([[1e154, 1e154], [-1e154, -1e154]])
        assert len(PointSet([[1e150, 0.0], [-1e150, 1e150]])) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0], [1.0]], weights=[1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            replace(PointSet([[0.0], [1.0]]), weights=[bad, 1.0])

    def test_immutable_arrays(self):
        ps = PointSet([[0.0, 1.0]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0

    def test_feature_lookup(self):
        ps = PointSet([[1.0, 2.0]], feature_names=("mll", "qt"))
        assert ps.feature_index("qt") == 1
        assert ps.feature_index(0) == 0
        with pytest.raises(ValueError):
            ps.feature_index("nope")

    def test_weights_and_labels_kept(self):
        ps = PointSet([[0.0, 1.0], [3.0, 4.0]], weights=[2.0, 0.5], labels=["sig", None])
        np.testing.assert_array_equal(ps.coords, [[0.0, 1.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ps.weights, [2.0, 0.5])
        assert ps.labels == ("sig", None)


class TestRescale:
    def test_unit_range_1d(self):
        ps = PointSet([0.0, 6.0, 12.0])
        out = rescale_features(ps, "unit-range")
        np.testing.assert_allclose(out.coords[:, 0], [0.0, 0.5, 1.0])

    def test_none_is_identity(self):
        ps = PointSet([[0.5, 2.0], [1.0, -1.0]])
        assert rescale_features(ps, "none") is ps

    def test_unit_range_per_axis(self):
        ps = PointSet([[0.0, 0.0], [10.0, 1.0]])
        out = rescale_features(ps, "unit-range")
        np.testing.assert_allclose(out.coords, [[0.0, 0.0], [1.0, 1.0]])

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.normal(scale=7.0, size=(40, 3)))
        out = rescale_features(ps, "unit-range")
        lo, hi = ps.coords.min(axis=0), ps.coords.max(axis=0)
        np.testing.assert_allclose(out.coords * (hi - lo) + lo, ps.coords, rtol=1e-12)

    def test_unit_variance(self):
        rng = np.random.default_rng(4)
        ps = PointSet(rng.normal(loc=5.0, scale=3.0, size=(500, 2)))
        out = rescale_features(ps, "unit-variance")
        np.testing.assert_allclose(out.coords.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.coords.std(axis=0), 1.0, rtol=1e-12)

    def test_unit_variance_needs_two_points(self):
        with pytest.raises(ValueError):
            rescale_features(PointSet([[1.0]]), "unit-variance")

    def test_constant_feature_maps_to_zero(self):
        ps = PointSet([[1.0, 5.0], [2.0, 5.0]])
        out = rescale_features(ps, "unit-range")
        np.testing.assert_array_equal(out.coords[:, 1], [0.0, 0.0])

    def test_preserves_weights_labels_count(self):
        ps = PointSet(
            [[0.0], [3.0], [9.0]],
            weights=[1.0, 0.0, 2.0],
            labels=["a", None, "b"],
            feature_names=("x",),
        )
        for mode in ("none", "unit-range", "unit-variance"):
            out = rescale_features(ps, mode)
            assert len(out) == 3
            np.testing.assert_array_equal(out.weights, ps.weights)
            assert out.labels == ps.labels
            assert out.feature_names == ps.feature_names

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            rescale_features(PointSet([[0.0]]), "standardize")
