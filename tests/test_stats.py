import numpy as np
import pytest

from spantree import (
    DegenerateStatistic,
    PointSet,
    Tree,
    build_mst_kruskal,
    degrees,
    edge_lengths,
    extract_branches,
    histogram,
    log_normalized_lengths,
    mean_log_norm_length,
    normalize_to,
    normalized_lengths,
    sample_1d,
    summarize,
)


def chain_tree():
    return build_mst_kruskal(PointSet([0.0, 1.0, 3.0]))


def path_tree(n):
    return build_mst_kruskal(PointSet(np.arange(float(n))))


def star_tree():
    # hub at origin, three unit-length spokes
    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    return Tree(ps, [0, 0, 0], [1, 2, 3], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])


def h_tree():
    # two junctions (1 and 5) joined through a degree-2 vertex (3),
    # four unit-length leaf edges
    ps = PointSet(
        [[0.0, 1.0], [0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [2.0, 1.0], [2.0, 0.0], [2.0, -1.0]]
    )
    us = [0, 1, 1, 3, 4, 5]
    vs = [1, 2, 3, 5, 5, 6]
    lengths = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    return Tree(ps, us, vs, lengths, np.ones(6))


def zero_edge_tree():
    return build_mst_kruskal(PointSet([[0.0, 0.0]]))


class TestEdgeLengths:
    def test_chain(self):
        assert [l for l, _ in edge_lengths(chain_tree())] == [1.0, 2.0]

    def test_unit_square(self):
        tree = build_mst_kruskal(PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert [l for l, _ in edge_lengths(tree)] == [1.0, 1.0, 1.0]

    def test_zero_edge_tree_raises(self):
        with pytest.raises(DegenerateStatistic):
            edge_lengths(zero_edge_tree())

    def test_exponential_has_heavier_tail_than_uniform(self):
        n = 3000
        uni = build_mst_kruskal(sample_1d("uniform1d", n, 8))
        exp = build_mst_kruskal(sample_1d("exponential1d", n, 8))
        uni_tail = np.quantile([l for l, _ in edge_lengths(uni)], 0.999)
        exp_tail = np.quantile([l for l, _ in edge_lengths(exp)], 0.999)
        assert exp_tail > uni_tail


class TestNormalizedLengths:
    def test_two_edges(self):
        vals = [v for v, _ in normalized_lengths(chain_tree())]
        assert vals == pytest.approx([1.0 / 1.5, 2.0 / 1.5], rel=1e-15)

    def test_mean_is_one(self):
        rng = np.random.default_rng(2)
        for m in (2, 5, 100):
            tree = build_mst_kruskal(PointSet(rng.random((m, 2))))
            mean = np.mean([v for v, _ in normalized_lengths(tree)])
            assert mean == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        coords = rng.random((50, 2))
        base = [v for v, _ in normalized_lengths(build_mst_kruskal(PointSet(coords)))]
        scaled = [v for v, _ in normalized_lengths(build_mst_kruskal(PointSet(coords * 37.5)))]
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_weighted_mean_uses_edge_weights(self):
        # suppressing one endpoint zeroes its edges out of the mean
        ps = PointSet([0.0, 1.0, 3.0], weights=[1.0, 1.0, 0.0])
        tree = build_mst_kruskal(ps)
        vals = dict(zip(tree.lengths.tolist(), [v for v, _ in normalized_lengths(tree)]))
        assert vals[1.0] == pytest.approx(1.0)  # mean over surviving weight is 1.0
        assert vals[2.0] == pytest.approx(2.0)

    def test_all_zero_weights_raise(self):
        ps = PointSet([0.0, 1.0, 3.0], weights=[0.0, 0.0, 0.0])
        with pytest.raises(DegenerateStatistic):
            normalized_lengths(build_mst_kruskal(ps))

    def test_coincident_points_raise(self):
        tree = build_mst_kruskal(PointSet([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateStatistic):
            normalized_lengths(tree)

    def test_log_values(self):
        logs = [v for v, _ in log_normalized_lengths(chain_tree())]
        assert logs == pytest.approx([np.log(2.0 / 3.0), np.log(4.0 / 3.0)], rel=1e-12)


class TestDegrees:
    def test_path(self):
        assert [d for d, _ in degrees(path_tree(5))] == [1, 2, 2, 2, 1]

    def test_star(self):
        assert [d for d, _ in degrees(star_tree())] == [3, 1, 1, 1]

    def test_handshake_lemma(self):
        rng = np.random.default_rng(5)
        tree = build_mst_kruskal(PointSet(rng.random((80, 3))))
        assert sum(d for d, _ in degrees(tree)) == 2 * tree.edge_count

    def test_weights_are_vertex_weights(self):
        ps = PointSet([0.0, 1.0, 3.0], weights=[0.5, 2.0, 1.0])
        tree = build_mst_kruskal(ps)
        assert [w for _, w in degrees(tree)] == [0.5, 2.0, 1.0]


class TestBranches:
    def test_pure_path_is_single_branch(self):
        branches = extract_branches(path_tree(100))
        assert len(branches) == 1
        assert sorted(branches[0].vertex_path) == list(range(100))
        assert branches[0].length == pytest.approx(99.0)

    def test_star_has_three_unit_branches(self):
        branches = extract_branches(star_tree())
        assert len(branches) == 3
        assert all(b.length == 1.0 for b in branches)
        assert all(b.vertex_path[-1] == 0 for b in branches)  # all end at the hub

    def test_h_tree_branches(self):
        tree = h_tree()
        branches = extract_branches(tree)
        assert len(branches) == 4
        assert all(len(b.edge_indices) == 1 for b in branches)
        used = {e for b in branches for e in b.edge_indices}
        unused = set(range(tree.edge_count)) - used
        # the junction-to-junction chain belongs to no branch
        unused_pairs = {(int(tree.edge_u[e]), int(tree.edge_v[e])) for e in unused}
        assert unused_pairs == {(1, 3), (3, 5)}

    def test_single_edge_tree(self):
        branches = extract_branches(build_mst_kruskal(PointSet([0.0, 2.0])))
        assert len(branches) == 1
        assert branches[0].length == 2.0

    def test_each_edge_in_at_most_one_branch(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tree = build_mst_kruskal(PointSet(rng.random((40, 2))))
            branches = extract_branches(tree)
            all_edges = [e for b in branches for e in b.edge_indices]
            assert len(all_edges) == len(set(all_edges))

    def test_branch_count_equals_leaf_count_unless_path(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tree = build_mst_kruskal(PointSet(rng.random((60, 2))))
            leaves = sum(1 for d, _ in degrees(tree) if d == 1)
            branches = extract_branches(tree)
            if max(d for d, _ in degrees(tree)) <= 2:
                assert len(branches) == 1
            else:
                assert len(branches) == leaves

    def test_branch_length_is_member_sum(self):
        rng = np.random.default_rng(8)
        tree = build_mst_kruskal(PointSet(rng.random((50, 2))))
        for b in extract_branches(tree):
            assert b.length == pytest.approx(float(tree.lengths[list(b.edge_indices)].sum()), rel=1e-12)

    def test_branch_weight_is_member_product(self):
        ps = PointSet([0.0, 1.0, 3.0], weights=[1.0, 0.5, 0.5])
        tree = build_mst_kruskal(ps)
        (branch,) = extract_branches(tree)
        assert branch.weight == pytest.approx(0.5 * 0.25, rel=1e-12)

    def test_zero_edge_tree_raises(self):
        with pytest.raises(DegenerateStatistic):
            extract_branches(zero_edge_tree())


class TestHistogram:
    def test_overflow_folds_into_last_bin(self):
        h = histogram([(0.5, 1.0), (1.5, 1.0), (99.0, 1.0)], 0.0, 2.0, 2, overflow=True)
        np.testing.assert_array_equal(h.contents, [1.0, 2.0])
        assert h.overflow == 0.0

    def test_fractional_overflow_folds_with_no_entry_inside(self):
        h = histogram([(1.5, 0.25), (-1.0, 0.5)], 0.0, 1.0, 1, overflow=True)
        np.testing.assert_array_equal(h.contents, [0.25])
        assert h.total == 0.75

    def test_overflow_counter_when_not_folding(self):
        h = histogram([(0.5, 1.0), (99.0, 2.5)], 0.0, 2.0, 2, overflow=False)
        np.testing.assert_array_equal(h.contents, [1.0, 0.0])
        assert h.overflow == 2.5

    def test_empty_input(self):
        h = histogram([], 0.0, 1.0, 4)
        np.testing.assert_array_equal(h.contents, np.zeros(4))
        assert h.total == 0.0

    def test_zero_weight_entries_do_not_count(self):
        h = histogram([(0.5, 0.0), (0.5, 1.0)], 0.0, 1.0, 1)
        assert h.contents[0] == 1.0

    def test_underflow_counter(self):
        h = histogram([(-1.0, 2.0), (0.5, 1.0)], 0.0, 1.0, 2)
        assert h.underflow == 2.0
        assert h.total == 3.0

    def test_total_preserves_weight(self):
        rng = np.random.default_rng(9)
        values = list(zip(rng.normal(size=500), rng.random(500)))
        h = histogram(values, -1.0, 1.0, 7, overflow=False)
        assert h.total == pytest.approx(sum(w for _, w in values), rel=1e-12)

    def test_bin_edges_half_open(self):
        h = histogram([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)], 0.0, 1.0, 2, overflow=False)
        np.testing.assert_array_equal(h.contents, [1.0, 1.0])
        assert h.overflow == 1.0  # the value at hi is out of range

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            histogram([], 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            histogram([], 0.0, 1.0, 0)


class TestNormalization:
    def test_normalize_to_matches_reference(self):
        h = histogram([(0.5, 50.0)], 0.0, 1.0, 1)
        ref = histogram([(0.5, 100.0)], 0.0, 1.0, 1)
        out = normalize_to(h, ref)
        assert out.contents[0] == pytest.approx(100.0)

    def test_factor_one_is_identity(self):
        h = histogram([(0.25, 2.0), (0.75, 3.0)], 0.0, 1.0, 2)
        out = h.scaled(1.0)
        np.testing.assert_array_equal(out.contents, h.contents)

    def test_zero_total_raises(self):
        empty = histogram([], 0.0, 1.0, 2)
        filled = histogram([(0.5, 1.0)], 0.0, 1.0, 2)
        with pytest.raises(DegenerateStatistic):
            normalize_to(empty, filled)
        with pytest.raises(DegenerateStatistic):
            normalize_to(filled, empty)

    def test_branch_histogram_uses_length_factor(self):
        # the branch histogram of a weighted tree is scaled with the factor
        # from the log-normalized-length pair, not its own total
        rng = np.random.default_rng(10)
        tree_a = build_mst_kruskal(PointSet(rng.random((120, 2))))
        tree_b = build_mst_kruskal(PointSet(rng.random((140, 2))))
        lnl_a = histogram(log_normalized_lengths(tree_a), -3.0, 2.0, 20)
        lnl_b = histogram(log_normalized_lengths(tree_b), -3.0, 2.0, 20)
        factor = lnl_a.total / lnl_b.total
        lnb_b = histogram(
            [(np.log(b.length), b.weight) for b in extract_branches(tree_b)], -4.0, 2.0, 20
        )
        scaled = lnb_b.scaled(factor)
        assert scaled.total == pytest.approx(lnb_b.total * factor, rel=1e-12)
        assert factor != pytest.approx(lnl_a.total / lnb_b.total)


class TestLogNormScaleInvariance:
    @pytest.mark.parametrize("scale", [2.0, 3.7])
    def test_histogram_bin_exact(self, scale):
        rng = np.random.default_rng(11)
        coords = rng.random((200, 2))
        h1 = histogram(
            log_normalized_lengths(build_mst_kruskal(PointSet(coords))), -4.0, 2.0, 30
        )
        h2 = histogram(
            log_normalized_lengths(build_mst_kruskal(PointSet(coords * scale))), -4.0, 2.0, 30
        )
        np.testing.assert_array_equal(h1.contents, h2.contents)
        assert h1.underflow == h2.underflow and h1.overflow == h2.overflow


class TestSummary:
    def test_summary_fields(self):
        rng = np.random.default_rng(12)
        ps = PointSet(rng.random((30, 2)))
        tree = build_mst_kruskal(ps)
        s = summarize(tree)
        assert s.edge_count == 29
        assert sum(s.degree_counts.values()) == pytest.approx(30.0)
        assert s.mean_log_norm_length == pytest.approx(mean_log_norm_length(tree))
        assert s.branch_count == len(extract_branches(tree))
        assert s.mean_edge_length > 0
