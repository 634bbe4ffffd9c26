import numpy as np
import pytest

from spantree import (
    DimensionMismatch,
    Point,
    PointSet,
    euclidean_distance,
    rescale_features,
)


class TestEuclideanDistance:
    def test_3_4_5_triangle(self):
        assert euclidean_distance(Point((0.0, 0.0)), Point((3.0, 4.0))) == 5.0

    def test_identical_points(self):
        assert euclidean_distance(Point((1.5,)), Point((1.5,))) == 0.0

    def test_3d_hand_computed(self):
        # sqrt(3^2 + 4^2 + 0^2) = 5
        assert euclidean_distance(Point((1.0, 2.0, 3.0)), Point((4.0, 6.0, 3.0))) == pytest.approx(5.0, rel=1e-15)

    def test_symmetry(self):
        a, b = Point((0.2, -1.0, 4.0)), Point((2.0, 0.5, -3.0))
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            euclidean_distance(Point((0.0,)), Point((0.0, 1.0)))

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            a, b, c = (Point(tuple(rng.normal(size=dim))) for _ in range(3))
            ab = euclidean_distance(a, b)
            bc = euclidean_distance(b, c)
            ac = euclidean_distance(a, c)
            assert ac <= ab + bc + 1e-9 * (ab + bc)


class TestPoint:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Point((0.0,), weight=-1.0)

    def test_defaults(self):
        p = Point((1.0, 2.0))
        assert p.weight == 1.0 and p.label is None and p.dimension == 2


class TestPointSet:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            PointSet(np.empty((0, 2)))

    def test_1d_input_is_column(self):
        ps = PointSet([0.0, 1.0, 2.0])
        assert ps.dimension == 1 and len(ps) == 3

    def test_from_points_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            PointSet.from_points([Point((0.0,)), Point((0.0, 1.0))])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            PointSet([[0.0], [1.0]], weights=[1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0, 1.0], [2.0, bad], [3.0, 4.0]])
        with pytest.raises(ValueError, match="finite"):
            PointSet([0.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0], [1.0]], weights=[1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            PointSet([[0.0], [1.0]]).with_weights([bad, 1.0])

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

    def test_point_round_trip(self):
        pts = [Point((0.0, 1.0), 2.0, "sig"), Point((3.0, 4.0), 0.5, None)]
        ps = PointSet.from_points(pts)
        assert ps.points == pts


class TestRescale:
    def test_unit_range_1d(self):
        ps = PointSet([0.0, 6.0, 12.0])
        out, params = rescale_features(ps, "unit-range")
        np.testing.assert_allclose(out.coords[:, 0], [0.0, 0.5, 1.0])
        assert params.mode == "unit-range"

    def test_none_is_identity(self):
        ps = PointSet([[0.5, 2.0], [1.0, -1.0]])
        out, _ = rescale_features(ps, "none")
        np.testing.assert_array_equal(out.coords, ps.coords)

    def test_unit_range_per_axis(self):
        ps = PointSet([[0.0, 0.0], [10.0, 1.0]])
        out, _ = rescale_features(ps, "unit-range")
        np.testing.assert_allclose(out.coords, [[0.0, 0.0], [1.0, 1.0]])

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.normal(scale=7.0, size=(40, 3)))
        out, params = rescale_features(ps, "unit-range")
        np.testing.assert_allclose(params.invert(out.coords), ps.coords, rtol=1e-12)

    def test_unit_variance(self):
        rng = np.random.default_rng(4)
        ps = PointSet(rng.normal(loc=5.0, scale=3.0, size=(500, 2)))
        out, _ = rescale_features(ps, "unit-variance")
        np.testing.assert_allclose(out.coords.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.coords.std(axis=0), 1.0, rtol=1e-12)

    def test_unit_variance_needs_two_points(self):
        with pytest.raises(ValueError):
            rescale_features(PointSet([[1.0]]), "unit-variance")

    def test_constant_feature_maps_to_zero(self):
        ps = PointSet([[1.0, 5.0], [2.0, 5.0]])
        out, _ = rescale_features(ps, "unit-range")
        np.testing.assert_array_equal(out.coords[:, 1], [0.0, 0.0])

    def test_preserves_weights_labels_count(self):
        ps = PointSet(
            [[0.0], [3.0], [9.0]],
            weights=[1.0, 0.0, 2.0],
            labels=["a", None, "b"],
            feature_names=("x",),
        )
        for mode in ("none", "unit-range", "unit-variance"):
            out, _ = rescale_features(ps, mode)
            assert len(out) == 3
            np.testing.assert_array_equal(out.weights, ps.weights)
            assert out.labels == ps.labels
            assert out.feature_names == ps.feature_names

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            rescale_features(PointSet([[0.0]]), "standardize")
