"""Euclidean minimal spanning tree construction.

Kruskal's algorithm scans a sparse candidate graph that provably contains
the tree.

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

# Kruskal rarely needs more than a small multiple of m candidate edges
# before the tree closes; start there and widen on the rare miss.
_PREFIX_FACTOR = 16

# Qhull decides the empty-sphere test in floating point, to within a few tens
# of eps * R^2 in squared distance, R the extent of the points; near-duplicate
# inputs showed missed tree edges up to closest-pair / R = 1.1e-7. A tree edge
# clears every other point by at least delta^2 / 2, delta the closest pair, so
# the triangulation is used only while delta / R stays above this bound.
_MIN_SEPARATION = 1e-6


class _UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


class Tree:
    """A minimal spanning tree: m - 1 edges over a source point set.

    Edge data is stored as parallel arrays (endpoint indices, lengths,
    weights) plus a per-vertex adjacency list of incident edge indices.
    Instances are immutable once built.
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

        adjacency: list[list[int]] = [[] for _ in range(len(source))]
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            adjacency[u].append(i)
            adjacency[v].append(i)
        self._adjacency = tuple(tuple(es) for es in adjacency)

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

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adjacency

    def degree(self, vertex: int) -> int:
        return len(self._adjacency[vertex])

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self._us.tolist(), self._vs.tolist()))

    def other_end(self, edge_index: int, vertex: int) -> int:
        u = int(self._us[edge_index])
        v = int(self._vs[edge_index])
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {edge_index}")

    def validate(self) -> None:
        """Structural checks: edge count, connectivity, acyclicity, lengths."""
        m = self.vertex_count
        if self.edge_count != m - 1:
            raise AssertionError(f"expected {m - 1} edges, found {self.edge_count}")
        uf = _UnionFind(m)
        for u, v in zip(self._us.tolist(), self._vs.tolist()):
            if not uf.union(u, v):
                raise AssertionError(f"edge ({u}, {v}) closes a cycle")
        roots = {uf.find(i) for i in range(m)}
        if len(roots) != 1:
            raise AssertionError(f"tree has {len(roots)} components")
        coords = self._source.coords
        diffs = coords[self._us] - coords[self._vs]
        expected = np.sqrt((diffs * diffs).sum(axis=1))
        if self.edge_count and not np.allclose(self._lengths, expected, rtol=1e-12, atol=0.0):
            raise AssertionError("stored edge lengths disagree with vertex coordinates")

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


def check_all_pairs_memory(m: int) -> None:
    """Raise :class:`InputTooLarge` if the all-pairs build cannot fit in memory.

    The condensed distance vector and its partition copy take about
    8 * m(m - 1) / 2 bytes each.
    """
    need = 8 * m * m
    available = _physical_memory_bytes()
    if available is not None and need > available:
        raise InputTooLarge(
            f"an exact tree over these {m} points needs all pairwise distances, "
            f"about {need / 2**30:.1f} GiB, more than the "
            f"{available / 2**30:.1f} GiB of physical memory"
        )


def _sparse_candidates(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate edges (u < v) containing the canonical tree, or None.

    None means the point set needs the all-pairs path.
    """
    m, d = coords.shape
    if d > 3:
        return None
    unique, first, inverse = np.unique(
        coords, axis=0, return_index=True, return_inverse=True
    )
    rep = first[inverse.reshape(-1)]
    dup = np.flatnonzero(rep != np.arange(m))
    if d == 1:
        a, b = first[:-1], first[1:]
    else:
        # imported here, not at module level: scipy.spatial takes about half a
        # second to load, and commands that build no tree should not pay it
        from scipy.spatial import Delaunay, QhullError, cKDTree

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


def _kruskal(m: int, cand_u, cand_v, cand_len) -> tuple[list[int], list[int], list[float]]:
    """Scan candidates in the given order; stop once m - 1 edges are accepted."""
    uf = _UnionFind(m)
    us: list[int] = []
    vs: list[int] = []
    lengths: list[float] = []
    for u, v, length in zip(cand_u, cand_v, cand_len):
        if uf.union(u, v):
            us.append(u)
            vs.append(v)
            lengths.append(length)
            if len(us) == m - 1:
                break
    return us, vs, lengths


def _kruskal_sparse(coords: np.ndarray, cand_u: np.ndarray, cand_v: np.ndarray):
    diff = coords[cand_u] - coords[cand_v]
    lengths = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((cand_v, cand_u, lengths))
    return _kruskal(
        len(coords), cand_u[order].tolist(), cand_v[order].tolist(), lengths[order].tolist()
    )


def _kruskal_all_pairs(coords: np.ndarray):
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

        cand_u, cand_v = _decode_condensed(selected, row_starts)
        us, vs, lengths = _kruskal(
            m, cand_u.tolist(), cand_v.tolist(), dists[selected].tolist()
        )
        if len(us) == m - 1 or k >= n_pairs:
            return us, vs, lengths
        k = min(k * 8, n_pairs)


def build_mst_kruskal(ps: PointSet) -> Tree:
    """Build the minimal spanning tree of a point set with Kruskal's algorithm.

    Edges appear in the result sorted by length ascending, ties broken by the
    canonical (u, v) pair. Each edge carries weight(u) * weight(v). A single
    point yields a tree with zero edges.

    Raises :class:`InputTooLarge` when the point set needs the all-pairs
    candidate path and that path would not fit in physical memory.
    """
    if len(ps) == 1:
        return _empty_tree(ps)

    coords = ps.coords
    candidates = _sparse_candidates(coords)
    if candidates is None:
        us, vs, lengths = _kruskal_all_pairs(coords)
    else:
        us, vs, lengths = _kruskal_sparse(coords, *candidates)

    us_arr = np.array(us, dtype=np.int64)
    vs_arr = np.array(vs, dtype=np.int64)
    weights = ps.weights[us_arr] * ps.weights[vs_arr]
    return Tree(ps, us_arr, vs_arr, np.array(lengths), weights)


def tree_total_length(t: Tree) -> float:
    """Sum of all edge lengths; zero for a single-vertex tree."""
    return float(t.lengths.sum())
