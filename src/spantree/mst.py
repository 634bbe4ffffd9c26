"""Euclidean minimal spanning tree construction.

The tree is the canonical Kruskal tree: edges ranked by (length, u, v),
each rank serving as a distinct weight. Distinct weights make the minimal
spanning tree unique, so it is exactly the tree a Kruskal scan of all
pairs in rank order accepts. The builder finds its m - 1 edges directly
and returns them in rank order, which is the order Kruskal accepts them.

The edges come from the distinct points. Duplicated rows are first
collapsed onto their lowest index, and each duplicate gets a zero-length
edge to that representative. Over the distinct points:

* d = 1: consecutive points in sorted order;
* d >= 2: the tree's own edges, found by Borůvka rounds over a kd-tree, in
  the spirit of dual-tree Borůvka (March, Ram & Gray 2010) and the
  kNN-filtered EMST (Wang, Yu, Gu & Shun 2021). Each point's 16 nearest
  points are queried once per build, and a pointer per row skips the
  entries already inside its component, so each entry is read about once.
  Each round a point offers the entry at its pointer, and any entry whose
  kd distance is within a factor 1 + 1e-9 of it, their lengths computed
  exactly. A row settles when its component's lightest edge is lighter
  than its 16th distance times (1 - 1e-9). Unsettled points of components
  below 64 points ask for their 32, then 64 nearest points; the rest, and
  the few still unsettled, query a kd-tree of the points outside.

Memory is O(m) on every path.

Equal-length edges are ordered by their canonical (u, v) index
pair, so the produced tree is deterministic even on degenerate inputs such
as unperturbed lattices where the minimal spanning tree is not unique. That
order makes the collapse exact: the zero-length duplicate edges come first
and form a star on each representative, and any later edge touching a
duplicate sorts after the equal-length edge between the representatives.
Lengths sum their squares one coordinate at a time, in the order
scipy.spatial.distance does, so every path returns the tree a Kruskal scan
of all pairs would, bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from .geometry import PointSet

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

    def __repr__(self) -> str:
        return f"Tree(m={self.vertex_count}, edges={self.edge_count})"


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


def _lengths(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the pairs (us, vs).

    The squares are summed one coordinate at a time, as scipy.spatial.distance
    sums them, so the lengths match its all-pairs distances bit for bit;
    numpy's row sum of the squares does not at d >= 8.
    """
    acc = np.zeros(len(us))
    for col in coords.T:
        diff = col[us] - col[vs]
        acc += diff * diff
    return np.sqrt(acc)


def _hook(comp: np.ndarray, roots: np.ndarray, other: np.ndarray, mutual: np.ndarray):
    """Component labels after each component in ``roots`` joins ``other``.

    Labels are vertex ids. Of a pair that picked the same edge (``mutual``)
    the lower id stays a root, every other component hooks onto the one it
    picked, and pointer jumping relabels each vertex with its new root.
    """
    hook = ~mutual | (roots > other)
    parent = np.arange(comp.size)
    parent[roots[hook]] = other[hook]
    grand = parent[parent]
    while not np.array_equal(grand, parent):
        parent, grand = grand, grand[grand]
    return parent[comp]


def _lightest(best: tuple, comp: np.ndarray, first: np.ndarray, m: int) -> tuple:
    """Each component's lightest offer, as its key u * m + v (m * m if none) and
    outside point, indexed by component: the lowest key among its shortest."""
    bound, offers = best
    a, b, length = (np.concatenate(col) for col in zip(*offers))
    a, b = (col[length == bound[comp[a]]] for col in (a, b))
    key = np.minimum(first[a], first[b]) * m + np.maximum(first[a], first[b])
    lowest = np.full(comp.size, m * m)
    np.minimum.at(lowest, comp[a], key)
    won = key == lowest[comp[a]]
    reach = np.empty(comp.size, np.int64)
    reach[comp[a[won]]] = b[won]  # a component's winning offers are one edge
    return lowest, reach


_KD_MODULE = "scipy.spatial._ckdtree"
_KD_LOCK = threading.Lock()


def _kd_tree_class() -> type:
    """scipy's compiled ``cKDTree`` class, loaded without the rest of scipy.spatial.

    ``import scipy.spatial`` also loads Qhull, scipy.linalg and scipy.special,
    about 0.45 s on top of numpy; the extension alone takes about 0.2 s. It
    is registered under its own name before it runs, so a later ``import
    scipy.spatial`` reuses it and ``scipy.spatial.cKDTree`` is this class
    (the package then lacks the attribute ``_ckdtree``; ``sys.modules`` has
    it). A scipy that keeps the extension elsewhere gets the public import.
    """
    with _KD_LOCK:
        module = sys.modules.get(_KD_MODULE)
        if module is None:
            import scipy

            spatial = [os.path.join(path, "spatial") for path in scipy.__path__]
            spec = importlib.machinery.PathFinder.find_spec(_KD_MODULE, spatial)
            if spec is None:
                from scipy.spatial import cKDTree

                return cKDTree
            module = importlib.util.module_from_spec(spec)
            sys.modules[_KD_MODULE] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_KD_MODULE]
                raise
    return module.cKDTree


def _query(tree, pts: np.ndarray, k: int, index: np.ndarray) -> tuple:
    """Each row's k nearest points in ``tree``, as rows of ``pts``.

    ``index`` maps the tree's points to rows of ``pts``. Returns the kd
    distances and point ids, nearest first, and whether k covers the tree.
    """
    k = min(k, tree.n)
    dist, nbr = tree.query(pts, k)
    return dist.reshape(-1, k), index[nbr].reshape(-1, k), k == tree.n


def _offer(pts, comp, best, a, b) -> None:
    """Add the edges from points ``a`` to points ``b`` outside their components to
    ``best``: each component's lightest length so far and its offers."""
    length = _lengths(pts, a, b)
    best[1].append((a, b, length))
    np.minimum.at(best[0], comp[a], length)


def _offer_rows(pts, comp, best, todo, dist, nbr, complete=False):
    """Offer each point of ``todo`` its lightest edges to its nearest points ``nbr``.

    A point's lightest edge out of its component is its first neighbour in
    another component, or one whose kd distance exceeds that neighbour's by
    a factor of at most 1 + 1e-9, since kd distances are within a few ulps
    of the exact lengths. Returns the points of ``todo`` whose unseen
    neighbours could still beat their component's edge.
    """
    out = comp[nbr] != comp[todo][:, None]
    near = dist[np.arange(todo.size), out.argmax(axis=1)]
    row, col = np.nonzero(out & (dist <= near[:, None] * (1 + 1e-9)))
    _offer(pts, comp, best, todo[row], nbr[row, col])
    # an unseen neighbour lies at least the last kd distance away, and that
    # distance is within a few ulps of the exact length
    settled = (dist[:, -1] * (1 - 1e-9) > best[0][comp[todo]]) | complete
    return todo[~settled]


def _kd_candidates(coords: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical tree's edges (u < v) between the distinct rows ``first``.

    Borůvka rounds over one kd-tree of the rows, whose 16 nearest points per
    row are queried once; each row's pointer only advances, as components
    only merge. A point whose 16th distance does not clear its component's
    lightest edge asks for its 32, then 64 nearest points if its component
    has fewer than 64 points; otherwise, or if still unsettled, it queries a
    kd-tree of the points outside its component. Each component joins the
    one its lightest edge reaches, so the m - 1 edges found are the tree.
    """
    cKDTree = _kd_tree_class()
    pts = coords[first]
    n, m = len(pts), len(coords)
    everyone = np.arange(n)
    tree = cKDTree(pts)
    dist, nbr, _ = _query(tree, pts, 16, everyone)
    pos = everyone * dist.shape[1]  # each row's pointer into the flattened table
    stop = pos + dist.shape[1]
    comp = active = everyone
    keys = [np.empty(0, np.int64)]  # one distinct row: no rounds
    found = 0
    while found < n - 1:
        rows = active
        while rows.size:  # an entry once inside a component stays inside it
            rows = rows[comp[np.take(nbr, pos[rows])] == comp[rows]]
            pos[rows] += 1
            rows = rows[pos[rows] < stop[rows]]
        active = active[pos[active] < stop[active]]
        best = (np.full(n, np.inf), [])
        at = pos[active]
        nxt = np.minimum(at + 1, stop[active] - 1)
        # the next entry within the factor 1 + 1e-9: offer the whole row
        wide = (nxt > at) & (np.take(dist, nxt) <= np.take(dist, at) * (1 + 1e-9))
        _offer(pts, comp, best, active[~wide], np.take(nbr, at[~wide]))
        if wide.any():
            _offer_rows(pts, comp, best, active[wide], dist[active[wide]], nbr[active[wide]])
        # a table that holds every point settles at the first wider query
        todo = np.flatnonzero(dist[:, -1] * (1 - 1e-9) <= best[0][comp])
        small = np.bincount(comp, minlength=n)[comp[todo]] < 64
        large, todo = todo[~small], todo[small]
        for k in (32, 64):
            if todo.size:
                todo = _offer_rows(pts, comp, best, todo, *_query(tree, pts[todo], k, everyone))
        todo = np.concatenate([todo, large])
        for c in np.unique(comp[todo]):
            outside = np.flatnonzero(comp != c)
            # built anew per component and round: the unbalanced build is cheaper
            local = cKDTree(pts[outside], balanced_tree=False, compact_nodes=False)
            pending, k = todo[comp[todo] == c], 8
            while pending.size:
                nearest = _query(local, pts[pending], k, outside)
                pending = _offer_rows(pts, comp, best, pending, *nearest)
                k *= 2
        lowest, reach = _lightest(best, comp, first, m)
        roots = np.flatnonzero(lowest < m * m)
        other = comp[reach[roots]]
        mutual = lowest[other] == lowest[roots]
        new = ~mutual | (roots < other)
        keys.append(lowest[roots[new]])
        found += int(new.sum())
        comp = _hook(comp, roots, other, mutual)
    return np.divmod(np.concatenate(keys), m)


def _candidates(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical tree's m - 1 edges (u < v), in no particular order."""
    m, d = coords.shape
    first, rep = _distinct_rows(coords)
    dup = np.flatnonzero(rep != np.arange(m))
    a, b = (first[:-1], first[1:]) if d == 1 else _kd_candidates(coords, first)
    us = np.concatenate([rep[dup], np.minimum(a, b)])
    vs = np.concatenate([dup, np.maximum(a, b)])
    return us, vs


def build_mst_kruskal(ps: PointSet) -> Tree:
    """Build the minimal spanning tree of a point set.

    The tree is the canonical Kruskal tree: edges appear sorted by length
    ascending, ties broken by the canonical (u, v) pair. Each edge carries
    weight(u) * weight(v). A single point yields a tree with zero edges.
    Points on a line (d = 1) join their sorted neighbours; at d >= 2 the
    edges come from Borůvka rounds over one kd-tree. Memory is O(m) at
    every dimension.
    """
    coords = ps.coords
    us, vs = _candidates(coords)
    lengths = _lengths(coords, us, vs)
    order = np.lexsort((vs, us, lengths))
    us, vs = us[order], vs[order]
    return Tree(ps, us, vs, lengths[order], ps.weights[us] * ps.weights[vs])


def tree_total_length(t: Tree) -> float:
    """Sum of all edge lengths; zero for a single-vertex tree."""
    return float(t.lengths.sum())
