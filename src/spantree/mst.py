"""Euclidean minimal spanning tree construction.

The tree is the canonical Kruskal tree of a sparse candidate graph that
provably contains it. The candidates are ranked by (length, u, v), each
rank serving as a distinct weight, and a Borůvka merge over the ranks finds
the tree in a few array passes: each round every component takes its
lowest-ranked outgoing candidate (Borůvka 1926). Distinct weights make the
minimal spanning forest unique, so it is exactly the forest a Kruskal scan
of the candidates in rank order accepts, edge order included.

Candidate edges come from the distinct points. Duplicated rows are first
collapsed onto their lowest index, and each duplicate gets a zero-length
edge to that representative. Over the distinct points:

* d = 1: consecutive points in sorted order;
* d = 2, 3: the edges of the Delaunay triangulation (Qhull). Every tree
  edge uv is a strict Gabriel edge, because a third point w in its closed
  diametral ball would have max(|uw|, |vw|) < |uv|, making uv the strict
  maximum on the cycle u-v-w. Strict Gabriel edges lie in every Delaunay
  triangulation (Shamos & Hoey 1975);
* d >= 4, or when Qhull cannot serve (too few, collinear or coplanar
  points, a closest pair too near for its floating-point predicates, or
  points it drops as near-coincident): every pair of points.

Memory is O(m) for the sparse paths and O(m^2) for the all-pairs path,
which refuses, before allocating, an input larger than physical memory.

Equal-length candidate edges are ordered by their canonical (u, v) index
pair, so the produced tree is deterministic even on degenerate inputs such
as unperturbed lattices where the minimal spanning tree is not unique. That
order makes the collapse exact: the zero-length duplicate edges come first
and form a star on each representative, and any later edge touching a
duplicate sorts after the equal-length edge between the representatives.
The sparse and all-pairs paths therefore return the same tree, bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputTooLarge
from .geometry import PointSet

# The shortest few multiples of m pairs rarely miss a tree edge; start the
# all-pairs path there and widen on the rare miss.
_PREFIX_FACTOR = 16

# Qhull decides the empty-sphere test in floating point, to within a few tens
# of eps * R^2 in squared distance, R the extent of the points; near-duplicate
# inputs showed missed tree edges up to closest-pair / R = 1.1e-7. A tree edge
# clears every other point by at least delta^2 / 2, delta the closest pair, so
# the triangulation is used only while delta / R stays above this bound.
_MIN_SEPARATION = 1e-6


class Tree:
    """A minimal spanning tree: m - 1 edges over a source point set.

    Edge data is stored as parallel arrays: endpoint indices, lengths and
    weights. Instances are immutable once built.
    """

    def __init__(self, source: PointSet, us, vs, lengths, weights) -> None:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (us.shape == vs.shape == lengths.shape == weights.shape):
            raise ValueError("edge arrays must have equal shapes")
        if np.any(us >= vs):
            raise ValueError("edges must be stored canonically with u < v")
        for arr in (us, vs, lengths, weights):
            arr.setflags(write=False)
        self._source = source
        self._us = us
        self._vs = vs
        self._lengths = lengths
        self._weights = weights

    @property
    def source(self) -> PointSet:
        return self._source

    @property
    def vertex_count(self) -> int:
        return len(self._source)

    @property
    def edge_count(self) -> int:
        return int(self._us.size)

    @property
    def edge_u(self) -> np.ndarray:
        return self._us

    @property
    def edge_v(self) -> np.ndarray:
        return self._vs

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths

    @property
    def edge_weights(self) -> np.ndarray:
        return self._weights

    def vertex_degrees(self) -> np.ndarray:
        """Number of tree edges at each vertex."""
        m = self.vertex_count
        return np.bincount(self._us, minlength=m) + np.bincount(self._vs, minlength=m)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self._us.tolist(), self._vs.tolist()))

    def __repr__(self) -> str:
        return f"Tree(m={self.vertex_count}, edges={self.edge_count})"


def _condensed_row_starts(m: int) -> np.ndarray:
    starts = np.zeros(m, dtype=np.int64)
    if m > 1:
        starts[1:] = np.cumsum(np.arange(m - 1, 0, -1, dtype=np.int64))
    return starts


def _decode_condensed(indices: np.ndarray, row_starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    us = np.searchsorted(row_starts, indices, side="right") - 1
    vs = indices - row_starts[us] + us + 1
    return us, vs


def _empty_tree(ps: PointSet) -> Tree:
    return Tree(ps, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        # no sysconf (Windows) or the value is unknown: nothing to check against
        return None


def _free_memory_bytes() -> int | None:
    """Memory not in use by any process or the page cache, or None if unknown."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def all_pairs_bytes(m: int) -> int:
    """Memory the all-pairs build of ``m`` points needs, about 8 * m^2 bytes.

    The condensed distance vector and its partition copy take about
    8 * m(m - 1) / 2 bytes each.
    """
    return 8 * m * m


def check_all_pairs_memory(m: int) -> None:
    """Raise :class:`InputTooLarge` if the all-pairs build cannot fit in memory."""
    need = all_pairs_bytes(m)
    available = _physical_memory_bytes()
    if available is not None and need > available:
        raise InputTooLarge(
            f"an exact tree over these {m} points needs all pairwise distances, "
            f"about {need / 2**30:.1f} GiB, more than the "
            f"{available / 2**30:.1f} GiB of physical memory"
        )


def _distinct_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse equal rows onto their lowest index.

    Returns ``first``, the lowest index of each distinct row with the rows in
    lexicographic order, and ``rep``, the lowest index equal to each row.
    Rows compare as numbers, so -0.0 and 0.0 are one value.
    """
    order = np.lexsort(coords.T[::-1])
    rows = coords[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    # the sort is stable, so each run of equal rows starts at its lowest index
    first = order[new]
    rep = np.empty_like(order)
    rep[order] = first[np.cumsum(new) - 1]
    return first, rep


def _sparse_candidates(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate edges (u < v) containing the canonical tree, or None.

    None means the point set needs the all-pairs path.
    """
    m, d = coords.shape
    if d > 3:
        return None
    first, rep = _distinct_rows(coords)
    dup = np.flatnonzero(rep != np.arange(m))
    if d == 1:
        a, b = first[:-1], first[1:]
    else:
        # imported here, not at module level: scipy.spatial takes about half a
        # second to load, and commands that build no tree should not pay it
        from scipy.spatial import Delaunay, QhullError, cKDTree

        unique = coords[first]
        # the translation keeps Qhull's precision tied to the extent, not the offset
        pts = unique - unique.min(axis=0)
        closest = cKDTree(pts).query(pts, k=2)[0][:, 1].min()
        if closest < _MIN_SEPARATION * pts.max():
            return None
        try:
            tri = Delaunay(pts)
        except QhullError:
            return None
        if tri.coplanar.size:
            return None
        indptr, neighbours = tri.vertex_neighbor_vertices
        owner = np.repeat(np.arange(len(pts)), np.diff(indptr))
        keep = owner < neighbours
        a, b = first[owner[keep]], first[neighbours[keep]]
    us = np.concatenate([rep[dup], np.minimum(a, b)])
    vs = np.concatenate([dup, np.maximum(a, b)])
    return us, vs


def _boruvka(m: int, cand_u: np.ndarray, cand_v: np.ndarray) -> np.ndarray:
    """Positions of the minimum spanning forest's edges among ranked candidates.

    Candidate i weighs i, so every weight is distinct and the forest is the
    one a Kruskal scan of the candidates in order accepts. Each round, every
    component picks its lowest-ranked candidate to another component; a pair
    that picked the same candidate is rooted at its lower id, every other
    component hooks onto the one it picked, and pointer jumping relabels.
    The positions come back in ascending order, which is Kruskal's.
    """
    n = cand_u.size
    comp = np.arange(m)
    live = np.arange(n)
    chosen = np.zeros(n, dtype=bool)
    while True:
        cu, cv = comp[cand_u[live]], comp[cand_v[live]]
        outgoing = cu != cv
        if not outgoing.any():
            return np.flatnonzero(chosen)
        live, cu, cv = live[outgoing], cu[outgoing], cv[outgoing]
        best = np.full(m, n)
        np.minimum.at(best, cu, live)
        np.minimum.at(best, cv, live)
        roots = np.flatnonzero(best < n)
        pick = best[roots]
        chosen[pick] = True
        other = comp[cand_u[pick]] + comp[cand_v[pick]] - roots
        hook = (best[other] != pick) | (roots > other)
        parent = np.arange(m)
        parent[roots[hook]] = other[hook]
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        comp = parent[comp]


def _ranked_tree(coords: np.ndarray, cand_u: np.ndarray, cand_v: np.ndarray):
    diff = coords[cand_u] - coords[cand_v]
    lengths = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((cand_v, cand_u, lengths))
    cand_u, cand_v, lengths = cand_u[order], cand_v[order], lengths[order]
    picks = _boruvka(len(coords), cand_u, cand_v)
    return cand_u[picks], cand_v[picks], lengths[picks]


def _all_pairs_tree(coords: np.ndarray):
    from scipy.spatial.distance import pdist

    m = len(coords)
    check_all_pairs_memory(m)
    dists = pdist(coords)
    n_pairs = dists.size
    row_starts = _condensed_row_starts(m)

    k = min(_PREFIX_FACTOR * m, n_pairs)
    while True:
        if k >= n_pairs:
            # condensed indices are (u, v)-lexicographic, so a stable sort
            # by length alone breaks ties canonically
            selected = np.argsort(dists, kind="stable")
        else:
            kth_value = np.partition(dists, k - 1)[k - 1]
            selected = np.flatnonzero(dists <= kth_value)
            selected = selected[np.argsort(dists[selected], kind="stable")]

        picks = selected[_boruvka(m, *_decode_condensed(selected, row_starts))]
        # a spanning forest of the prefix with m - 1 edges is the whole tree
        if picks.size == m - 1 or k >= n_pairs:
            return (*_decode_condensed(picks, row_starts), dists[picks])
        k = min(k * 8, n_pairs)


def build_mst_kruskal(ps: PointSet) -> Tree:
    """Build the minimal spanning tree of a point set.

    The tree is the canonical Kruskal tree: edges appear sorted by length
    ascending, ties broken by the canonical (u, v) pair. Each edge carries
    weight(u) * weight(v). A single point yields a tree with zero edges.

    Raises :class:`InputTooLarge` when the point set needs the all-pairs
    candidate path and that path would not fit in physical memory.
    """
    if len(ps) == 1:
        return _empty_tree(ps)

    coords = ps.coords
    candidates = _sparse_candidates(coords)
    if candidates is None:
        us, vs, lengths = _all_pairs_tree(coords)
    else:
        us, vs, lengths = _ranked_tree(coords, *candidates)
    return Tree(ps, us, vs, lengths, ps.weights[us] * ps.weights[vs])


def tree_total_length(t: Tree) -> float:
    """Sum of all edge lengths; zero for a single-vertex tree."""
    return float(t.lengths.sum())
