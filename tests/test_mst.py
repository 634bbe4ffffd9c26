import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from spantree import (
    PointSet,
    build_mst_kruskal,
    generate,
    preset_spec,
    tree_total_length,
)
from spantree import mst
from spantree.generators import PRESET_NAMES

from bruteforce import (
    build_mst_prim,
    canonical_mst_dense,
    edge_set,
    min_spanning_total_bruteforce,
    validate_tree,
)

BUILDERS = (build_mst_kruskal, build_mst_prim)


@pytest.mark.parametrize("build", BUILDERS)
class TestBothBuilders:
    def test_collinear_chain(self, build):
        tree = build(PointSet([0.0, 1.0, 3.0]))
        edges = list(zip(tree.edge_u.tolist(), tree.edge_v.tolist(), tree.lengths.tolist()))
        assert edges == [(0, 1, 1.0), (1, 2, 2.0)]
        assert tree_total_length(tree) == 3.0

    def test_single_point(self, build):
        tree = build(PointSet([[5.0, 5.0]]))
        assert tree.edge_count == 0
        assert tree_total_length(tree) == 0.0

    def test_structure_random(self, build):
        rng = np.random.default_rng(11)
        for m in (2, 3, 10, 57):
            tree = build(PointSet(rng.random((m, 2))))
            assert tree.edge_count == m - 1
            validate_tree(tree)

    def test_small_inputs_match_bruteforce(self, build):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(3, 8))
            coords = rng.random((m, 2)) * 5
            total = tree_total_length(build(PointSet(coords)))
            oracle = min_spanning_total_bruteforce(coords)
            assert total == pytest.approx(oracle, rel=1e-9)

    def test_edges_canonical_and_sorted(self, build):
        rng = np.random.default_rng(13)
        tree = build(PointSet(rng.random((60, 3))))
        assert np.all(tree.edge_u < tree.edge_v)
        assert np.all(np.diff(tree.lengths) >= 0)

    def test_edge_lengths_match_distance(self, build):
        rng = np.random.default_rng(17)
        ps = PointSet(rng.random((40, 2)))
        tree = build(ps)
        for u, v, length in zip(tree.edge_u, tree.edge_v, tree.lengths):
            d = np.sqrt(((ps.coords[u] - ps.coords[v]) ** 2).sum())
            assert length == pytest.approx(d, rel=1e-12)

    def test_edge_weight_is_vertex_product(self, build):
        rng = np.random.default_rng(19)
        weights = rng.random(25)
        ps = PointSet(rng.random((25, 2)), weights=weights)
        tree = build(ps)
        for u, v, w in zip(tree.edge_u, tree.edge_v, tree.edge_weights):
            assert w == pytest.approx(weights[u] * weights[v], rel=1e-12)

    def test_sorted_1d_is_consecutive_chain(self, build):
        rng = np.random.default_rng(23)
        x = np.sort(rng.random(200) * 12)
        tree = build(PointSet(x))
        expected = {(i, i + 1) for i in range(199)}
        assert edge_set(tree) == expected
        assert tree_total_length(tree) == pytest.approx(x[-1] - x[0], rel=1e-12)


class TestKruskalDeterminism:
    def test_degenerate_grid_ties_reproducible(self):
        # unperturbed lattice: many equal lengths, canonical pair order decides
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        ps = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
        t1 = build_mst_kruskal(ps)
        t2 = build_mst_kruskal(ps)
        assert edge_set(t1) == edge_set(t2)
        validate_tree(t1)
        np.testing.assert_array_equal(t1.lengths, np.ones(15))

    def test_square_picks_canonical_unit_edges(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = build_mst_kruskal(ps)
        assert edge_set(tree) == {(0, 1), (0, 2), (1, 3)}

    def test_prefix_growth_path(self):
        # two distant 4-d clusters: the bridge edge is the longest, and the
        # last Borůvka round finds it through the kd-tree outside each cluster
        rng = np.random.default_rng(31)
        a = rng.random((150, 4))
        b = rng.random((150, 4)) + 500.0
        ps = PointSet(np.vstack([a, b]))
        tree = build_mst_kruskal(ps)
        validate_tree(tree)
        assert edge_set(tree) == edge_set(build_mst_prim(ps))

    def test_uniform_1d_preset_is_sorted_chain(self):
        # 100 000 points: far beyond what an all-pairs build could hold
        ps = generate(preset_spec("uniform-1d", 4))
        m = len(ps)
        tree = build_mst_kruskal(ps)
        order = np.argsort(ps.coords[:, 0], kind="stable")
        expected = set(zip(np.minimum(order[:-1], order[1:]).tolist(),
                           np.maximum(order[:-1], order[1:]).tolist()))
        assert m == 100_000
        assert tree.edge_count == m - 1
        assert edge_set(tree) == expected


class TestAlgorithmAgreement:
    def test_identical_edge_sets_on_continuous_input(self):
        rng = np.random.default_rng(37)
        for dim in (1, 2, 3):
            ps = PointSet(rng.random((500, dim)) * 10)
            assert edge_set(build_mst_kruskal(ps)) == edge_set(build_mst_prim(ps))

    def test_totals_match_bruteforce_for_seven_points(self):
        rng = np.random.default_rng(41)
        coords = rng.random((7, 2)) * 3
        oracle = min_spanning_total_bruteforce(coords)
        ps = PointSet(coords)
        assert tree_total_length(build_mst_kruskal(ps)) == pytest.approx(oracle, rel=1e-9)
        assert tree_total_length(build_mst_prim(ps)) == pytest.approx(oracle, rel=1e-9)


class TestTreeValidation:
    def test_rejects_non_canonical_edges(self):
        from spantree import Tree

        ps = PointSet([[0.0], [1.0]])
        with pytest.raises(ValueError):
            Tree(ps, [1], [0], [1.0], [1.0])

    def test_rejects_non_finite_edges(self):
        from spantree import Tree

        ps = PointSet([[0.0], [1.0]])
        for length, weight in ((np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                Tree(ps, [0], [1], [length], [weight])

    def test_overflowing_edge_weights_raise(self):
        from spantree import DegenerateStatistic

        ps = PointSet(np.random.default_rng(3).random((50, 2)), weights=np.full(50, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStatistic, match="edge weights overflow"):
                build_mst_kruskal(ps)

    def test_validate_catches_cycle(self):
        from spantree import Tree

        ps = PointSet([[0.0], [1.0], [2.0]])
        bad = Tree(ps, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(AssertionError):
            validate_tree(bad)


def _lattice(dim: int, k: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(float(k))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


def _staggered_lattice_3d() -> np.ndarray:
    g = _lattice(3, 2)
    g[:, 0] += 0.5 * g[:, 1]
    return g


def _assert_canonical(ps: PointSet) -> None:
    tree = build_mst_kruskal(ps)
    us, vs, lengths = canonical_mst_dense(ps.coords)
    np.testing.assert_array_equal(tree.edge_u, us)
    np.testing.assert_array_equal(tree.edge_v, vs)
    assert tree.lengths.tobytes() == lengths.tobytes()
    np.testing.assert_array_equal(tree.edge_weights, ps.weights[us] * ps.weights[vs])


def _integer_cloud(dim: int, m: int, jitter: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, (m, dim)).astype(float) + rng.normal(0.0, jitter, (m, dim))


def _swapped_pairs(dim: int, count: int, seed: int) -> np.ndarray:
    """Triples c, c + v, c + w, w being v with two nearly equal coordinates
    swapped. The two lengths from c agree to within an ulp, and at d >= 8 the
    kd-tree's distances can order them unlike the exact lengths do."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, dim))
    v[:, 1] = v[:, 0] * (1 + 1e-7)
    w = v[:, [1, 0, *range(2, dim)]]
    c = rng.random((count, dim)) * 1000.0
    return np.stack([c, c + v, c + w], axis=1).reshape(-1, dim)


def _tied_rings_4d(copies: int, seed: int) -> np.ndarray:
    """Copies of the 24 points at distance sqrt(2) around a centre listed
    after them: the centre's 16 nearest points hold only 15 of its equally
    near neighbours, so its lightest (length, u, v) edge may be unseen."""
    ring = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=4)
                     if np.count_nonzero(v) == 2])
    rng = np.random.default_rng(seed)
    blocks = [np.vstack([ring[rng.permutation(24)], np.zeros((1, 4))]) for _ in range(copies)]
    return np.vstack([block + 10.0 * i for i, block in enumerate(blocks)])


_rng = np.random.default_rng(43)
_t = _rng.random(200)
_uv = _rng.random((200, 2))
_base2 = _rng.random((150, 2))
_GATE_CASES = {
    "lattice-2d": _lattice(2, 15),
    "lattice-2d-jitter": _lattice(2, 15) + _rng.normal(0.0, 1e-13, (225, 2)),
    "lattice-2d-offset": _lattice(2, 15) + 1e6,
    "lattice-3d": _lattice(3, 6),
    "lattice-3d-jitter": _lattice(3, 6) + _rng.normal(0.0, 1e-13, (216, 3)),
    "lattice-3d-offset": _lattice(3, 6) + 1e6,
    "staggered-3d-offset": _staggered_lattice_3d() + 1e6,
    "duplicated-rows-1d": np.repeat(_rng.random((40, 1)), 3, axis=0)[_rng.permutation(120)],
    "duplicated-rows-2d": np.vstack([_base2, _base2[_rng.integers(0, 150, 60)]]),
    "duplicated-rows-3d": np.vstack([_lattice(3, 4)] * 3),
    "signed-zeros": np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, -0.0], [1.0, 0.0], [0.0, 2.0]]),
    "identical-1d": np.full((25, 1), 0.3),
    "identical-2d": np.full((25, 2), 0.3),
    "identical-3d": np.full((25, 3), 0.3),
    "collinear-2d": np.column_stack([_t, 2.0 * _t + 1.0]),
    "coplanar-3d": np.column_stack([_uv, _uv @ [0.5, -2.0] + 3.0]),
    "cocircular-2d": np.column_stack(
        [np.cos(np.arange(48) * np.pi / 24), np.sin(np.arange(48) * np.pi / 24)]
    ),
    # pairs 1e-9 apart next to the points they copy
    "near-duplicates-2d": np.vstack([_base2, _base2[:40] + _rng.normal(0.0, 1e-9, (40, 2))]),
    # integer points jittered by 1e-9: near-ties only the exact lengths order
    "near-duplicates-3d": _integer_cloud(3, 120, 1e-9, seed=1),
}
_GATE_CASES.update(
    {f"small-d{d}-m{m}": _rng.random((m, d)) for d in (1, 2, 3, 4) for m in range(2, d + 3)}
)
# ties and duplicated rows: integer points in a 4^d box
_GATE_CASES.update(
    {f"integer-ties-d{d}": _rng.integers(0, 4, (200, d)).astype(float) for d in range(1, 6)}
)
_GATE_CASES.update(
    {f"jittered-integers-d{d}": _integer_cloud(d, 200, 1e-9, seed=d) for d in (2, 4, 6)}
)
_GATE_CASES.update(
    {
        f"collinear-offset-d{d}": np.outer(_rng.random(150), _rng.random(d)) + 1e6
        for d in (2, 3, 4, 6)
    }
)
# each cluster holds more than the 64 nearest points a kd query asks for, so
# the bridge is found by the query against the points outside each cluster
_GATE_CASES["far-clusters-4d"] = np.vstack([_rng.random((150, 4)), _rng.random((150, 4)) + 50.0])
# a thin strip: in late rounds the 16 nearest points of about half the
# points lie inside their own chain, so those points ask for 32 or 64
_GATE_CASES["thin-strip-2d"] = np.column_stack([_rng.random(1000), _rng.random(1000) * 1e-3])
# a dozen far-apart clusters of 80 points: each is bridged by the query
# against the points outside it
_GATE_CASES.update(
    {
        f"many-far-clusters-{d}d": (
            _rng.random((12, 1, d)) * 1000.0 + _rng.random((12, 80, d))
        ).reshape(-1, d)
        for d in (2, 4)
    }
)
_GATE_CASES["gaussian-3d"] = _rng.normal(size=(1500, 3))
_GATE_CASES["swapped-coordinates-8d"] = _swapped_pairs(8, 100, seed=8)
_GATE_CASES["tied-rings-4d"] = _tied_rings_4d(4, seed=4)


def _far_clusters(count: int, size: int, dim: int, seed: int) -> np.ndarray:
    """``count`` unit cubes of ``size`` points each, placed at random in a cube 1000 wide."""
    rng = np.random.default_rng(seed)
    return (rng.random((count, 1, dim)) * 1000.0 + rng.random((count, size, dim))).reshape(-1, dim)


# isolated clusters below and above the 64 nearest points a wide query asks
# for: the smaller take the 32- and 64-nearest queries, the larger go
# straight to the query against the points outside their component
_GATE_CASES.update(
    {
        f"far-clusters-{count}x{size}-{d}d": _far_clusters(count, size, d, seed=d)
        for count, size in ((40, 30), (12, 100))
        for d in (2, 4)
    }
)


def _two_discs(count: int, alpha: float, seed: int) -> np.ndarray:
    """A mixture shaped like the fit demo's: a disc of radius 20 around the
    origin and, for a fraction ``alpha`` of the points, one of radius 8
    around (10, 4), every point jittered by a Gaussian of width 0.2."""
    rng = np.random.default_rng(seed)
    signal = np.arange(count) < int(count * alpha)
    u = rng.random((count, 2))
    r, t = np.where(signal, 8.0, 20.0) * np.sqrt(u[:, 0]), 2 * np.pi * u[:, 1]
    xy = np.column_stack([r * np.cos(t), r * np.sin(t)]) + np.outer(signal, [10.0, 4.0])
    return xy + rng.normal(0.0, 0.2, xy.shape)


def _late_join_2d(seed: int) -> np.ndarray:
    """A 40 x 40 block and two 30 x 30 blocks 4 apart, 11 from it, jittered by
    1e-3: the pass joins each block, the two join next into a component
    larger than the first, and the first then joins them."""
    jitter = np.random.default_rng(seed).normal(0.0, 1e-3, (3400, 2))
    return np.vstack([_lattice(2, 30) + [0.0, 50.0], _lattice(2, 40),
                      _lattice(2, 30) + [33.0, 50.0]]) + jitter


def _six_blocks_2d() -> np.ndarray:
    """Six integer-lattice blocks, each joined by the pass. The 40 x 25 block is
    the largest at first, then the two 30 x 20 blocks once joined, then the
    other four blocks once joined."""
    blocks = [(40, 25, 0.0, 0.0), (10, 10, 42.0, 0.0), (20, 20, 0.0, 28.0),
              (20, 20, 22.5, 28.0), (30, 20, 100.0, 0.0), (30, 20, 100.0, 22.0)]
    return np.vstack([np.stack(np.meshgrid(np.arange(w) + x, np.arange(h) + y, indexing="ij"),
                               axis=-1).reshape(-1, 2) for w, h, x, y in blocks])


def _clump_beside_background(clump: int, background: int, seed: int) -> np.ndarray:
    """``clump`` points in a box 1e-3 wide beside ``background`` points spread over 100 x 100."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.random((clump, 2)) * 1e-3 + 50.0, rng.random((background, 2)) * 100.0])


_lattice_rng = np.random.default_rng(89)
_ties = np.vstack([_lattice(2, 30), _lattice(2, 30)[_lattice_rng.integers(0, 900, 150)]])
# 2-d inputs that take the short-edge pass
_PASS_CASES = {
    "two-discs-a15": _two_discs(1200, 0.15, seed=1),
    "two-discs-a45": _two_discs(1200, 0.45, seed=2),
    # lattice edges of one length: the pass ranks its pairs by a lexsort
    "lattice-ties-duplicates-2d": _ties[_lattice_rng.permutation(len(_ties))],
    "late-join-2d": _late_join_2d(seed=3),
    "six-blocks-2d": _six_blocks_2d(),
    # the median 7th-neighbour distance is sqrt(2), the diagonals' exact length
    "pair-at-radius-2d": _lattice(2, 25) + 1000.0,
}
# up to 20 points the stride sample holds every point; some take the pass
_GATE_CASES.update({f"sampled-whole-2d-m{m}": _lattice_rng.random((m, 2)) for m in range(2, 21)})
_GATE_CASES["clump-beside-background-2d"] = _clump_beside_background(450, 550, seed=5)


class TestExactnessGate:
    """The tree equals the canonical all-pairs Kruskal tree, bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        # the grid presets have a fixed size of 800 events
        count = None if "grid" in name else 2000
        _assert_canonical(generate(preset_spec(name, 3, count=count)))

    @pytest.mark.parametrize("name", sorted(_GATE_CASES))
    def test_degenerate_and_small_inputs(self, name):
        _assert_canonical(PointSet(_GATE_CASES[name]))

    @pytest.mark.parametrize("dim", range(7, 17))
    def test_gaussian_high_dimension(self, dim):
        _assert_canonical(PointSet(np.random.default_rng(dim).normal(size=(300, dim))))

    def test_weighted_input(self):
        rng = np.random.default_rng(47)
        for dim in (1, 2, 3, 4):
            _assert_canonical(PointSet(rng.random((300, dim)), weights=rng.random(300) * 3))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_signed_zero_duplicates_collapse_like_unique(self, dim):
        # -0.0 and 0.0 compare equal, so their rows are duplicates of the lowest index
        rng = np.random.default_rng(59 + dim)
        coords = rng.integers(-1, 2, (60, dim)) * rng.choice([-1.0, 1.0], (60, dim))
        assert np.signbit(coords[coords == 0]).any() and not np.signbit(coords[coords == 0]).all()
        first, rep = mst._distinct_rows(coords)
        _, unique_first, inverse = np.unique(
            coords, axis=0, return_index=True, return_inverse=True
        )
        np.testing.assert_array_equal(first, unique_first)
        np.testing.assert_array_equal(rep, unique_first[inverse.reshape(-1)])
        _assert_canonical(PointSet(coords))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 10),
        m=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        integer_valued=st.booleans(),
    )
    def test_permutation_invariance(self, dim, m, seed, integer_valued):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 4, (m, dim)).astype(float) if integer_valued else rng.random((m, dim))
        perm = rng.permutation(m)
        tree = build_mst_kruskal(PointSet(coords))
        permuted = build_mst_kruskal(PointSet(coords[perm]))
        assert permuted.lengths.tobytes() == tree.lengths.tobytes()
        d = pdist(coords)
        if np.unique(d).size == d.size:
            # the tree is unique, so it cannot depend on the labelling
            relabelled = {tuple(sorted((int(perm[u]), int(perm[v]))))
                          for u, v in edge_set(permuted)}
            assert relabelled == edge_set(tree)


class TestOneTreePath:
    """Every d >= 2 input builds by kd-tree Borůvka over one table of nearest points."""

    def test_no_triangulation(self, monkeypatch):
        import scipy.spatial

        def refuse(*args, **kwargs):
            raise AssertionError("a tree build triangulated its points")

        monkeypatch.setattr(scipy.spatial, "Delaunay", refuse)
        rng = np.random.default_rng(71)
        for dim in (2, 3):
            _assert_canonical(PointSet(rng.normal(size=(500, dim))))
        for name in ("disc", "disc3d-exp"):
            assert build_mst_kruskal(generate(preset_spec(name, 1))).edge_count > 0

    def test_one_query_over_all_points(self, monkeypatch):
        rows = []

        class CountingKDTree(mst._kd_tree_class()):
            def query(self, x, *args, **kwargs):
                rows.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(mst, "_kd_tree_class", lambda: CountingKDTree)
        tree = build_mst_kruskal(PointSet(np.random.default_rng(73).normal(size=(4000, 4))))
        assert tree.edge_count == 3999
        # every round reads the one table; wider queries serve unsettled points only
        assert rows.count(4000) == 1

    @pytest.mark.parametrize("size, requeried", [(30, True), (100, False)])
    def test_wide_queries_only_for_components_below_64(self, monkeypatch, size, requeried):
        points = _far_clusters(12, size, 4, seed=83)
        wide, outside = [], []

        class CountingKDTree(mst._kd_tree_class()):
            def query(self, x, k, *args, **kwargs):
                if self.n < len(points):
                    outside.append(len(x))
                elif k in (32, 64):
                    wide.append(len(x))
                return super().query(x, k, *args, **kwargs)

        monkeypatch.setattr(mst, "_kd_tree_class", lambda: CountingKDTree)
        _assert_canonical(PointSet(points))
        # every point of a whole isolated cluster is unsettled: 30 points ask
        # for their 32 nearest, which reach past the cluster, while 100 points
        # query the points outside their component at once; the largest
        # component never searches, so the 30-point clusters need no outside tree
        assert bool(wide) == requeried
        assert bool(outside) != requeried

    def test_uniform_disc_builds_no_outside_tree(self, monkeypatch):
        u = np.random.default_rng(7).random((20000, 2))
        r, t = np.sqrt(u[:, 0]), 2 * np.pi * u[:, 1]
        points = np.column_stack([r * np.cos(t), r * np.sin(t)])
        outside = []

        class CountingKDTree(mst._kd_tree_class()):
            def __init__(self, data, *args, **kwargs):
                if len(data) < len(points):
                    outside.append(len(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(mst, "_kd_tree_class", lambda: CountingKDTree)
        assert build_mst_kruskal(PointSet(points)).edge_count == 19999
        # a large component that already holds an offer settles its inner
        # points with the 32/64 re-queries, not with a tree of all outside points
        assert outside == []


def _count_kd_calls(monkeypatch) -> dict:
    """Record each pair search's radius, and (tree size, rows) of each
    16-nearest query, made by the kd-tree class the builder loads."""
    calls = {"pairs": [], "table": []}

    class CountingKDTree(mst._kd_tree_class()):
        def query(self, x, k, *args, **kwargs):
            if k == 16:
                calls["table"].append((self.n, len(x)))
            return super().query(x, k, *args, **kwargs)

        def query_pairs(self, r, *args, **kwargs):
            calls["pairs"].append(r)
            return super().query_pairs(r, *args, **kwargs)

    monkeypatch.setattr(mst, "_kd_tree_class", lambda: CountingKDTree)
    return calls


class TestShortEdgePass:
    """At d = 2 one pair search finds the tree's short edges, and the table of
    nearest points is queried only outside the largest component."""

    @pytest.mark.parametrize("name", sorted(_PASS_CASES))
    def test_pass_inputs_are_exact(self, monkeypatch, name):
        calls = _count_kd_calls(monkeypatch)
        _assert_canonical(PointSet(_PASS_CASES[name]))
        assert len(calls["pairs"]) == 1

    def test_pair_as_long_as_the_radius(self, monkeypatch):
        coords = _PASS_CASES["pair-at-radius-2d"]
        calls = _count_kd_calls(monkeypatch)
        _assert_canonical(PointSet(coords))
        # the pass leaves the diagonals, exactly r long, to the table rounds
        assert calls["pairs"] == [np.sqrt(2.0)] and np.sqrt(2.0) in pdist(coords)

    def test_rows_queried_when_their_component_stops_being_largest(self, monkeypatch):
        calls = _count_kd_calls(monkeypatch)
        _assert_canonical(PointSet(_PASS_CASES["late-join-2d"]))
        # the two small blocks first, then the 40 x 40 block once they have joined
        assert [rows for _, rows in calls["table"]] == [1800, 1600]

    def test_each_point_queried_into_the_table_at_most_once(self, monkeypatch):
        coords = _PASS_CASES["six-blocks-2d"]
        queried = []

        class CountingKDTree(mst._kd_tree_class()):
            def query(self, x, k, *args, **kwargs):
                if k == 16:
                    queried.append(np.asarray(x))
                return super().query(x, k, *args, **kwargs)

        monkeypatch.setattr(mst, "_kd_tree_class", lambda: CountingKDTree)
        _assert_canonical(PointSet(coords))
        # rows of the two 30 x 20 blocks keep their table rows while the pair
        # is the largest component, and search again once it is not
        rows = np.concatenate(queried)
        assert len(np.unique(rows, axis=0)) == len(rows) == len(coords)

    def test_disc_queries_the_table_for_few_rows(self, monkeypatch):
        u = np.random.default_rng(7).random((20000, 2))
        r, t = np.sqrt(u[:, 0]), 2 * np.pi * u[:, 1]
        calls = _count_kd_calls(monkeypatch)
        tree = build_mst_kruskal(PointSet(np.column_stack([r * np.cos(t), r * np.sin(t)])))
        assert tree.edge_count == 19999
        assert len(calls["pairs"]) == 1
        assert sum(rows for n, rows in calls["table"] if n == 20000) < 200

    def test_dense_clump_refuses_the_pass(self, monkeypatch):
        # at the background's radius the clump's 4,500 points share one cell
        calls = _count_kd_calls(monkeypatch)
        tree = build_mst_kruskal(PointSet(_clump_beside_background(4500, 5500, seed=5)))
        validate_tree(tree)
        assert calls["pairs"] == [] and calls["table"] == [(10000, 10000)]

    def test_huge_span_builds_without_overflow(self):
        rng = np.random.default_rng(97)
        far = np.array([[1e150, 0.0], [-1e150, 0.0], [0.0, 1e150], [0.0, -1e150]])
        coords = np.vstack([rng.random((300, 2)) * 1e-3, far])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_canonical(PointSet(coords))


# Loads the kd-tree class and scipy.spatial in the order argv[1] names, in a
# fresh interpreter, and checks both share one module and one class.
_KD_LOAD_ORDER = """
import sys
from spantree import mst

if sys.argv[1] == "helper-first":
    loaded = mst._kd_tree_class()
    assert "scipy.spatial" not in sys.modules
    module = sys.modules["scipy.spatial._ckdtree"]
    import scipy.spatial
else:
    import scipy.spatial
    module = sys.modules["scipy.spatial._ckdtree"]
    loaded = mst._kd_tree_class()
# one module, executed once, and one class
assert sys.modules["scipy.spatial._ckdtree"] is module
assert loaded is module.cKDTree is scipy.spatial.cKDTree
"""


# Each script runs in a fresh interpreter, where the kd-tree is not loaded yet.
_KD_LOAD_LEAVES_REAL_MODULES = """
import sys
from spantree import mst

loaded = mst._kd_tree_class()
assert not any(isinstance(m, mst._StandIn) for m in sys.modules.values())
import scipy._lib._util
import scipy.sparse
import scipy.spatial

for module in (scipy.sparse, scipy._lib._util, scipy.spatial):
    assert not isinstance(module, mst._StandIn) and module.__spec__ is not None
assert scipy.sparse.csr_matrix and scipy.spatial.cKDTree is loaded
"""

_KD_LOAD_SERVES_SCIPYS_VALUES = """
import sys
import numpy as np
from spantree import mst

tree = mst._kd_tree_class()(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
dist = tree.sparse_distance_matrix(tree, 1.5, output_type="coo_matrix")
import scipy._lib._util
import scipy.sparse

assert scipy.sparse.issparse(dist)
assert dist.toarray().tolist() == [[0, 1, 1], [1, 0, 2**0.5], [1, 2**0.5, 0]]
served = sys.modules["scipy.spatial._ckdtree"].copy_if_needed
assert served is scipy._lib._util.copy_if_needed
"""

_KD_LOAD_WITH_A_SECOND_THREAD = """
import sys
import threading
from spantree import mst

stop = threading.Event()
worker = threading.Thread(target=stop.wait)
worker.start()
try:
    mst._kd_tree_class()
finally:
    stop.set()
    worker.join()
assert "scipy.sparse" in sys.modules and "scipy._lib._util" in sys.modules
assert not any(isinstance(m, mst._StandIn) for m in sys.modules.values())
"""

_KD_LOAD_FORWARDS_OTHER_NAMES = """
import sys
import numpy as np
from spantree import PointSet, build_mst_kruskal, mst

mst._STAND_INS["scipy._lib._util"].clear()
mst._kd_tree_class()
util = sys.modules["scipy._lib._util"]
assert not isinstance(util, mst._StandIn)
assert sys.modules["scipy.spatial._ckdtree"].copy_if_needed is util.copy_if_needed
# a stand-in asked for a name it does not serve gives way to the real module
assert "scipy.sparse" not in sys.modules
sys.modules["scipy.sparse"] = stand_in = mst._StandIn("scipy.sparse")
assert stand_in.issparse is sys.modules["scipy.sparse"].issparse
assert not isinstance(sys.modules["scipy.sparse"], mst._StandIn)
tree = build_mst_kruskal(PointSet(np.random.default_rng(int(sys.argv[1])).normal(size=(300, 3))))
print(tree.edge_u.tolist())
print(tree.edge_v.tolist())
print(tree.lengths.tobytes().hex())
"""

# the stand-ins serve what scipy 1.17's extension takes at load; an older
# scipy may ask for other names, which then load the real modules
_STAND_INS_CHECKED = pytest.mark.skipif(
    np.lib.NumpyVersion(scipy.__version__) < "1.17.0",
    reason="the kd-tree load's stand-ins were checked against scipy 1.17 only",
)


def _run_fresh(script: str, *argv) -> str:
    """Run ``script`` in a fresh interpreter with the package importable; its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestKdTreeLoader:
    """The compiled kd-tree loads without scipy.spatial and stays scipy's own class."""

    @pytest.mark.parametrize("order", ["helper-first", "scipy-first"])
    def test_one_class_in_either_order(self, order):
        _run_fresh(_KD_LOAD_ORDER, order)

    def test_later_imports_get_the_real_modules(self):
        _run_fresh(_KD_LOAD_LEAVES_REAL_MODULES)

    @_STAND_INS_CHECKED
    def test_served_values_are_scipys(self):
        _run_fresh(_KD_LOAD_SERVES_SCIPYS_VALUES)

    @_STAND_INS_CHECKED
    def test_second_thread_gets_the_full_load(self):
        _run_fresh(_KD_LOAD_WITH_A_SECOND_THREAD)

    @_STAND_INS_CHECKED
    def test_unserved_name_loads_the_real_module(self):
        us, vs, lengths = _run_fresh(_KD_LOAD_FORWARDS_OTHER_NAMES, 83).splitlines()
        want_u, want_v, want_lengths = canonical_mst_dense(np.random.default_rng(83).normal(size=(300, 3)))
        assert json.loads(us) == want_u.tolist() and json.loads(vs) == want_v.tolist()
        assert lengths == want_lengths.tobytes().hex()

    def test_missing_extension_falls_back_to_public_class(self, monkeypatch):
        import importlib.machinery

        import scipy.spatial

        find_spec = importlib.machinery.PathFinder.find_spec

        def hide_extension(name, *args, **kwargs):
            return None if name == mst._KD_MODULE else find_spec(name, *args, **kwargs)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", hide_extension)
        monkeypatch.delitem(sys.modules, mst._KD_MODULE, raising=False)
        assert mst._kd_tree_class() is scipy.spatial.cKDTree
        assert mst._KD_MODULE not in sys.modules
        _assert_canonical(PointSet(np.random.default_rng(79).normal(size=(400, 3))))


class TestCandidates:
    """The candidates are the canonical tree's m - 1 edges as sorted keys, with nothing to merge."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 5), m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_integer_ties_give_exactly_the_tree(self, dim, m, seed):
        coords = np.random.default_rng(seed).integers(0, 4, (m, dim)).astype(float)
        keys = mst._candidates(coords)
        assert keys.size == m - 1 and (np.diff(keys) > 0).all()
        us, vs = np.divmod(keys, m)
        want_u, want_v, _ = canonical_mst_dense(coords)
        assert set(zip(us.tolist(), vs.tolist())) == set(zip(want_u.tolist(), want_v.tolist()))


def test_lengths_match_all_pairs_distances():
    # summing the squares by row instead changes the last bit at d >= 8
    rng = np.random.default_rng(61)
    for dim in range(2, 25):
        coords = rng.normal(size=(150, dim)) * rng.random(dim) * 100
        us, vs = np.triu_indices(150, 1)
        assert mst._lengths(coords, us, vs).tobytes() == pdist(coords).tobytes()


_LINEAR_MEMORY = """
import resource
import sys

import numpy as np
from spantree import PointSet, build_mst_kruskal

draw, m, d = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
tree = build_mst_kruskal(PointSet(getattr(np.random.default_rng(67), draw)(size=(m, d))))
assert tree.edge_count == m - 1
try:
    # on Linux ru_maxrss keeps the peak of the address space this process
    # was exec'd from, which under vfork is the test runner's; VmHWM (KiB)
    # is the peak of this process's own
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_memory_is_linear_in_points():
    # all pairs of 30,000 points would take about 7 GB, and 200,000 uniform
    # 2-d points take the short-edge pass; each child reports its own peak,
    # since this process's other children (forked calibration workers)
    # share the RUSAGE_CHILDREN maximum
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for draw, m, d in (("normal", 30_000, 4), ("random", 200_000, 2)):
        proc = subprocess.run(
            [sys.executable, "-c", _LINEAR_MEMORY, draw, str(m), str(d)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        scale = 1 if sys.platform == "darwin" else 1024
        assert int(proc.stdout) * scale < 400 * 2**20
