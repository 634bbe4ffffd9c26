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
    generate,
    histogram,
    log_normalized_lengths,
    mean_log_norm_length,
    normalized_lengths,
    preset_spec,
    sample_1d,
    summarize,
)

from bruteforce import branch_walks, normalize_to


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
        assert edge_lengths(chain_tree())[0].tolist() == [1.0, 2.0]

    def test_unit_square(self):
        tree = build_mst_kruskal(PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert edge_lengths(tree)[0].tolist() == [1.0, 1.0, 1.0]

    def test_zero_edge_tree_raises(self):
        with pytest.raises(DegenerateStatistic):
            edge_lengths(zero_edge_tree())

    def test_exponential_has_heavier_tail_than_uniform(self):
        n = 3000
        uni = build_mst_kruskal(sample_1d("uniform1d", n, 8))
        exp = build_mst_kruskal(sample_1d("exponential1d", n, 8))
        uni_tail = np.quantile(edge_lengths(uni)[0], 0.999)
        exp_tail = np.quantile(edge_lengths(exp)[0], 0.999)
        assert exp_tail > uni_tail


class TestNormalizedLengths:
    def test_two_edges(self):
        vals = normalized_lengths(chain_tree())[0].tolist()
        assert vals == pytest.approx([1.0 / 1.5, 2.0 / 1.5], rel=1e-15)

    def test_mean_is_one(self):
        rng = np.random.default_rng(2)
        for m in (2, 5, 100):
            tree = build_mst_kruskal(PointSet(rng.random((m, 2))))
            mean = np.mean(normalized_lengths(tree)[0])
            assert mean == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        coords = rng.random((50, 2))
        base = normalized_lengths(build_mst_kruskal(PointSet(coords)))[0]
        scaled = normalized_lengths(build_mst_kruskal(PointSet(coords * 37.5)))[0]
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_weighted_mean_uses_edge_weights(self):
        # suppressing one endpoint zeroes its edges out of the mean
        ps = PointSet([0.0, 1.0, 3.0], weights=[1.0, 1.0, 0.0])
        tree = build_mst_kruskal(ps)
        vals = dict(zip(tree.lengths.tolist(), normalized_lengths(tree)[0].tolist()))
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
        logs = log_normalized_lengths(chain_tree())[0].tolist()
        assert logs == pytest.approx([np.log(2.0 / 3.0), np.log(4.0 / 3.0)], rel=1e-12)


class TestDegrees:
    def test_path(self):
        assert degrees(path_tree(5))[0].tolist() == [1, 2, 2, 2, 1]

    def test_star(self):
        assert degrees(star_tree())[0].tolist() == [3, 1, 1, 1]

    def test_handshake_lemma(self):
        rng = np.random.default_rng(5)
        tree = build_mst_kruskal(PointSet(rng.random((80, 3))))
        assert degrees(tree)[0].sum() == 2 * tree.edge_count

    def test_weights_are_vertex_weights(self):
        ps = PointSet([0.0, 1.0, 3.0], weights=[0.5, 2.0, 1.0])
        tree = build_mst_kruskal(ps)
        assert degrees(tree)[1].tolist() == [0.5, 2.0, 1.0]


class TestBranches:
    def test_pure_path_is_single_branch(self):
        tree = path_tree(100)
        lengths, _ = extract_branches(tree)
        assert len(lengths) == 1
        assert lengths[0] == pytest.approx(99.0)
        ((path, _),) = branch_walks(tree)
        assert sorted(path) == list(range(100))

    def test_star_has_three_unit_branches(self):
        lengths, _ = extract_branches(star_tree())
        assert lengths.tolist() == [1.0, 1.0, 1.0]
        assert all(path[-1] == 0 for path, _ in branch_walks(star_tree()))  # all end at the hub

    def test_h_tree_branches(self):
        tree = h_tree()
        assert len(extract_branches(tree)[0]) == 4
        walks = branch_walks(tree)
        assert all(len(edges) == 1 for _, edges in walks)
        used = {e for _, edges in walks for e in edges}
        unused = set(range(tree.edge_count)) - used
        # the junction-to-junction chain belongs to no branch
        unused_pairs = {(int(tree.edge_u[e]), int(tree.edge_v[e])) for e in unused}
        assert unused_pairs == {(1, 3), (3, 5)}

    def test_single_edge_tree(self):
        lengths, _ = extract_branches(build_mst_kruskal(PointSet([0.0, 2.0])))
        assert lengths.tolist() == [2.0]

    def test_each_edge_in_at_most_one_branch(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tree = build_mst_kruskal(PointSet(rng.random((40, 2))))
            all_edges = [e for _, edges in branch_walks(tree) for e in edges]
            assert len(all_edges) == len(set(all_edges))

    def test_branch_count_equals_leaf_count_unless_path(self):
        rng = np.random.default_rng(7)
        trees = [build_mst_kruskal(PointSet(rng.random((60, 2)))) for _ in range(10)]
        trees += [
            path_tree(30),
            star_tree(),
            build_mst_kruskal(generate(preset_spec("disc", 7, count=500))),
            build_mst_kruskal(generate(preset_spec("quadratic-grid", 7))),
        ]
        for tree in trees:
            deg = degrees(tree)[0]
            lengths, weights = extract_branches(tree)
            expected = 1 if deg.max() <= 2 else (deg == 1).sum()
            assert len(lengths) == len(weights) == len(branch_walks(tree)) == expected
            # the summary counts the branches without walking them
            assert summarize(tree).branch_count == len(lengths)

    def test_branch_length_is_member_sum(self):
        rng = np.random.default_rng(8)
        tree = build_mst_kruskal(PointSet(rng.random((50, 2))))
        lengths, _ = extract_branches(tree)
        for total, (_, edges) in zip(lengths, branch_walks(tree), strict=True):
            assert total == pytest.approx(float(tree.lengths[edges].sum()), rel=1e-12)

    def test_branch_totals_equal_per_branch_reductions(self):
        # short branches of a random tree and the one long branch of a path
        rng = np.random.default_rng(14)
        trees = [
            build_mst_kruskal(PointSet(rng.random((300, 2)), weights=rng.random(300) + 0.5)),
            build_mst_kruskal(PointSet(rng.random(40), weights=rng.random(40) + 0.5)),
        ]
        for tree in trees:
            lengths, weights = extract_branches(tree)
            walks = branch_walks(tree)
            assert len(lengths) == len(weights) == len(walks)
            for total, weight, (_, edges) in zip(lengths, weights, walks):
                assert total == tree.lengths[edges].sum()
                assert weight == np.prod(tree.edge_weights[edges])

    def test_branch_weight_is_member_product(self):
        ps = PointSet([0.0, 1.0, 3.0], weights=[1.0, 0.5, 0.5])
        tree = build_mst_kruskal(ps)
        _, (weight,) = extract_branches(tree)
        assert weight == pytest.approx(0.5 * 0.25, rel=1e-12)

    def test_zero_edge_tree_raises(self):
        with pytest.raises(DegenerateStatistic):
            extract_branches(zero_edge_tree())


class TestHistogram:
    def test_overflow_folds_into_last_bin(self):
        h = histogram([0.5, 1.5, 99.0], [1.0, 1.0, 1.0], 0.0, 2.0, 2, overflow=True)
        np.testing.assert_array_equal(h.contents, [1.0, 2.0])
        assert h.overflow == 0.0

    def test_fractional_overflow_folds_with_no_entry_inside(self):
        h = histogram([1.5, -1.0], [0.25, 0.5], 0.0, 1.0, 1, overflow=True)
        np.testing.assert_array_equal(h.contents, [0.25])
        assert h.total == 0.75

    def test_overflow_counter_when_not_folding(self):
        h = histogram([0.5, 99.0], [1.0, 2.5], 0.0, 2.0, 2, overflow=False)
        np.testing.assert_array_equal(h.contents, [1.0, 0.0])
        assert h.overflow == 2.5

    def test_empty_input(self):
        h = histogram([], [], 0.0, 1.0, 4)
        np.testing.assert_array_equal(h.contents, np.zeros(4))
        assert h.total == 0.0

    def test_zero_weight_entries_do_not_count(self):
        h = histogram([0.5, 0.5], [0.0, 1.0], 0.0, 1.0, 1)
        assert h.contents[0] == 1.0

    def test_underflow_counter(self):
        h = histogram([-1.0, 0.5], [2.0, 1.0], 0.0, 1.0, 2)
        assert h.underflow == 2.0
        assert h.total == 3.0

    def test_total_preserves_weight(self):
        rng = np.random.default_rng(9)
        values, weights = rng.normal(size=500), rng.random(500)
        h = histogram(values, weights, -1.0, 1.0, 7, overflow=False)
        assert h.total == pytest.approx(weights.sum(), rel=1e-12)

    def test_bin_edges_half_open(self):
        h = histogram([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], 0.0, 1.0, 2, overflow=False)
        np.testing.assert_array_equal(h.contents, [1.0, 1.0])
        assert h.overflow == 1.0  # the value at hi is out of range

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            histogram([], [], 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            histogram([], [], 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            histogram([0.5], [1.0, 2.0], 0.0, 1.0, 2)


class TestWeightOverflow:
    """A weighted sum, mean or product beyond the float range is refused, not inf or nan."""

    def test_mean_edge_length(self):
        # two edges of weight 1e308: their sum overflows
        ps = PointSet([0.0, 1.0, 3.0], weights=[1e154, 1e154, 1e154])
        with pytest.raises(DegenerateStatistic, match="mean edge length overflows"):
            normalized_lengths(build_mst_kruskal(ps))

    def test_mean_log_norm_length(self):
        # the weights sum within range, but ln(0.002) times 0.8e308 does not
        ps = PointSet([0.0, 1e-3, 1.001])
        tree = Tree(ps, [0, 1], [1, 2], [1e-3, 1.0], [0.8e308, 0.8e308])
        assert np.isfinite(normalized_lengths(tree)[0]).all()
        with pytest.raises(DegenerateStatistic, match="log normalized length overflows"):
            mean_log_norm_length(tree)

    def test_coincident_points_still_give_minus_infinity(self):
        ps = PointSet([0.0, 0.0, 1.0])
        assert mean_log_norm_length(build_mst_kruskal(ps)) == -np.inf

    def test_branch_weight(self):
        ps = PointSet([0.0, 1.0, 2.0])
        tree = Tree(ps, [0, 1], [1, 2], [1.0, 1.0], [1e200, 1e200])
        with pytest.raises(DegenerateStatistic, match="branch weight"):
            extract_branches(tree)

    @pytest.mark.parametrize("values", [[0.5, 0.6], [0.5, 1.5], [-1.0, -2.0]],
                             ids=["one-bin", "folded-overflow", "underflow"])
    def test_histogram(self, values):
        with pytest.raises(DegenerateStatistic, match="weight sum overflows"):
            histogram(values, [1e308, 1e308], 0.0, 1.0, 1)


class TestNormalization:
    def test_normalize_to_matches_reference(self):
        h = histogram([0.5], [50.0], 0.0, 1.0, 1)
        ref = histogram([0.5], [100.0], 0.0, 1.0, 1)
        out = normalize_to(h, ref)
        assert out.contents[0] == pytest.approx(100.0)

    def test_factor_one_is_identity(self):
        h = histogram([0.25, 0.75], [2.0, 3.0], 0.0, 1.0, 2)
        out = h.scaled(1.0)
        np.testing.assert_array_equal(out.contents, h.contents)

    def test_zero_total_raises(self):
        empty = histogram([], [], 0.0, 1.0, 2)
        filled = histogram([0.5], [1.0], 0.0, 1.0, 2)
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
        lnl_a = histogram(*log_normalized_lengths(tree_a), -3.0, 2.0, 20)
        lnl_b = histogram(*log_normalized_lengths(tree_b), -3.0, 2.0, 20)
        factor = lnl_a.total / lnl_b.total
        lengths, weights = extract_branches(tree_b)
        lnb_b = histogram(np.log(lengths), weights, -4.0, 2.0, 20)
        scaled = lnb_b.scaled(factor)
        assert scaled.total == pytest.approx(lnb_b.total * factor, rel=1e-12)
        assert factor != pytest.approx(lnl_a.total / lnb_b.total)


class TestLogNormScaleInvariance:
    @pytest.mark.parametrize("scale", [2.0, 3.7])
    def test_histogram_bin_exact(self, scale):
        rng = np.random.default_rng(11)
        coords = rng.random((200, 2))
        h1 = histogram(
            *log_normalized_lengths(build_mst_kruskal(PointSet(coords))), -4.0, 2.0, 30
        )
        h2 = histogram(
            *log_normalized_lengths(build_mst_kruskal(PointSet(coords * scale))), -4.0, 2.0, 30
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
        assert s.branch_count == len(extract_branches(tree)[0])
        assert s.mean_edge_length > 0
