"""Property tests for the invariants the package promises.

* The tree of integer-valued points is the same edge set after an exact
  rigid motion: an integer translation and a signed permutation of the
  axes leave every pairwise distance bit-identical, so the canonical
  (length, u, v) order cannot change, ties included.
* Cut property: for any split of the points, the shortest tree edge that
  crosses it is as short as the closest crossing pair.
* A histogram's bins plus underflow and overflow hold the input weight.
* Region weighting changes weights only, never the tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from spantree import PointSet, RegionWeight, apply_region_weights, build_mst_kruskal, histogram

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), m=st.integers(2, 60), seed=SEEDS, spread=st.sampled_from([3, 50]))
def test_rigid_motion_keeps_edge_set(dim, m, seed, spread):
    rng = np.random.default_rng(seed)
    coords = rng.integers(-spread, spread + 1, (m, dim))
    shift = rng.integers(-10**6, 10**6 + 1, dim)
    axes = rng.permutation(dim)
    signs = rng.choice([-1, 1], dim)
    moved = coords[:, axes] * signs + shift
    tree = build_mst_kruskal(PointSet(coords.astype(float)))
    again = build_mst_kruskal(PointSet(moved.astype(float)))
    assert again.edge_set() == tree.edge_set()
    assert again.lengths.tobytes() == tree.lengths.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 4),
    m=st.integers(2, 60),
    seed=SEEDS,
    integer_valued=st.booleans(),
    data=st.data(),
)
def test_cut_property(dim, m, seed, integer_valued, data):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 5, (m, dim)).astype(float) if integer_valued else rng.random((m, dim))
    side = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    if side.all() or not side.any():
        side[0] = not side[0]
    tree = build_mst_kruskal(PointSet(coords))
    crossing = side[tree.edge_u] != side[tree.edge_v]
    assert crossing.any()
    closest = cdist(coords[side], coords[~side]).min()
    assert tree.lengths[crossing].min() == pytest.approx(closest, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 200),
    seed=SEEDS,
    lo=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    nbins=st.integers(1, 30),
    fold=st.booleans(),
)
def test_histogram_conserves_weight(n, seed, lo, width, nbins, fold):
    rng = np.random.default_rng(seed)
    values = rng.normal(lo + width / 2, width, n)
    weights = rng.random(n) * 3
    h = histogram(list(zip(values, weights)), lo, lo + width, nbins, overflow=fold)
    total = h.contents.sum() + h.underflow + h.overflow
    assert total == pytest.approx(weights.sum(), rel=1e-12, abs=1e-12)
    if fold:
        assert h.overflow == 0.0


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 4),
    m=st.integers(2, 60),
    seed=SEEDS,
    inside=st.floats(0.0, 5.0),
    outside=st.floats(0.0, 5.0),
)
def test_region_weights_keep_edge_set(dim, m, seed, inside, outside):
    rng = np.random.default_rng(seed)
    ps = PointSet(rng.random((m, dim)), weights=rng.random(m) + 0.5)
    box = {}
    for axis in range(dim):
        lo, hi = np.sort(rng.random(2))
        box[axis] = (None if rng.random() < 0.25 else lo, None if rng.random() < 0.25 else hi)
    weighted = apply_region_weights(ps, RegionWeight(box, inside, outside))
    tree = build_mst_kruskal(ps)
    again = build_mst_kruskal(weighted)
    assert again.edge_set() == tree.edge_set()
    assert again.lengths.tobytes() == tree.lengths.tobytes()
    np.testing.assert_array_equal(
        again.edge_weights, weighted.weights[again.edge_u] * weighted.weights[again.edge_v]
    )
