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
  kNN-filtered EMST (Wang, Yu, Gu & Shun 2021). In every round of both
  phases below each component joins along its lightest offered edge, the
  least in (length, u, v) order.

  At d = 2 a pass first finds the tree's edges shorter than a radius r, the
  median 7th-neighbour distance over a stride sample of the points. A grid
  of side r bounds the ordered pairs within r by 9 times the sum of the
  squared cell counts; if that allows at most 50 per point, one pair search
  returns every pair within r, and the rounds offer those shorter than
  r (1 - 1e-9) from both ends. Every pair left out is at least that long.
  Dense clumps and mixed scales fail the bound, as every d >= 3 input
  tried did (the factor is 3^d), so d >= 3 runs no pass.

  Then rounds over a table of each point's 16 nearest points join the
  rest. A largest component of more than one point never searches, since
  another component's lightest edge reaches it; a point is queried into
  the table in the first round it searches and keeps its row. A pointer
  per row skips the entries already inside its component, so each entry is
  read about once. Each round a point offers the entry at its pointer, and
  any entry whose kd distance is within a factor 1 + 1e-9 of it, their
  lengths computed exactly. A row settles when its component's lightest
  edge is lighter than its 16th distance times (1 - 1e-9). Unsettled
  points of components below 64 points, or of components that already hold
  an offer, ask for their 32, then 64 nearest points; the rest (large
  components with no offer, such as isolated clusters), and the few still
  unsettled, query a kd-tree of the points outside.

Memory is O(m) on every path. The result is a :class:`Tree`, a frozen
dataclass of read-only edge arrays.

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
import types
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatistic
from .geometry import PointSet


@dataclass(frozen=True, eq=False)
class Tree:
    """A minimal spanning tree: m - 1 edges over a source point set.

    Edge data is stored as parallel read-only arrays: endpoint indices
    (u < v), lengths and weights. Equality is identity, as for PointSet.
    """

    source: PointSet
    edge_u: np.ndarray
    edge_v: np.ndarray
    lengths: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self) -> None:
        us = np.asarray(self.edge_u, dtype=np.int64)
        vs = np.asarray(self.edge_v, dtype=np.int64)
        lengths = np.asarray(self.lengths, dtype=np.float64)
        weights = np.asarray(self.edge_weights, dtype=np.float64)
        if not (us.shape == vs.shape == lengths.shape == weights.shape):
            raise ValueError("edge arrays must have equal shapes")
        if np.any(us >= vs):
            raise ValueError("edges must be stored canonically with u < v")
        if not (np.isfinite(lengths).all() and np.isfinite(weights).all()):
            raise ValueError("edge lengths and weights must be finite")
        for name, arr in (("edge_u", us), ("edge_v", vs), ("lengths", lengths),
                          ("edge_weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def vertex_count(self) -> int:
        return len(self.source)

    @property
    def edge_count(self) -> int:
        return int(self.edge_u.size)

    def vertex_degrees(self) -> np.ndarray:
        """Number of tree edges at each vertex."""
        m = self.vertex_count
        return np.bincount(self.edge_u, minlength=m) + np.bincount(self.edge_v, minlength=m)

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


def _hook(comp: np.ndarray, lowest: np.ndarray, roots: np.ndarray, other: np.ndarray):
    """Component labels after each component in ``roots`` joins ``other``, and
    which of their lightest edges are new.

    Labels are vertex ids, and ``lowest`` keys each component's lightest
    edge. Of a pair that picked the same edge the lower id stays a root and
    holds the new edge, every other component hooks onto the one it picked,
    and pointer jumping relabels each vertex with its new root.
    """
    mutual = lowest[other] == lowest[roots]
    hook = ~mutual | (roots > other)
    parent = np.arange(comp.size)
    parent[roots[hook]] = other[hook]
    grand = parent[parent]
    while not np.array_equal(grand, parent):
        parent, grand = grand, grand[grand]
    return parent[comp], ~mutual | (roots < other)


def _keys(first: np.ndarray, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The keys u * m + v (u < v) of the edges between distinct rows a and b."""
    u, v = first[a], first[b]
    return np.minimum(u, v) * m + np.maximum(u, v)


def _join(best: tuple, comp: np.ndarray, first: np.ndarray, m: int) -> tuple:
    """Join each component along its lightest offer in ``best``, the lowest key
    u * m + v among its shortest: the new labels and the new edges' keys."""
    bound, offers = best
    # only offers as short as their component's lightest can win
    near = [np.flatnonzero(length == bound[comp[a]]) for a, _, length in offers]
    a, b = (np.concatenate([offer[c][k] for offer, k in zip(offers, near)]) for c in (0, 1))
    key = _keys(first, a, b, m)
    lowest = np.full(comp.size, m * m)
    np.minimum.at(lowest, comp[a], key)
    won = key == lowest[comp[a]]
    reach = np.empty(comp.size, np.int64)
    reach[comp[a[won]]] = b[won]  # a component's winning offers are one edge
    roots = np.flatnonzero(lowest < m * m)
    comp, new = _hook(comp, lowest, roots, comp[reach[roots]])
    return comp, lowest[roots[new]]


_KD_MODULE = "scipy.spatial._ckdtree"
_KD_LOCK = threading.Lock()
# what the extension takes at load from two modules that cost 0.15 s to import
_STAND_INS = {"scipy.sparse": {}, "scipy._lib._util": {
    "copy_if_needed": None if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False}}


class _StandIn(types.ModuleType):
    """A module whose names not set on it load the real module in its place."""

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        if sys.modules.get(self.__name__) is self:
            del sys.modules[self.__name__]
        return getattr(importlib.import_module(self.__name__), name)


def _kd_tree_class() -> type:
    """scipy's compiled ``cKDTree`` class, loaded without the rest of scipy.spatial.

    ``import scipy.spatial`` also loads Qhull, scipy.linalg and scipy.special,
    about 0.45 s on top of numpy. The extension takes about 15 ms when, with no
    other thread running, it runs beside ``_STAND_INS`` in place of the two
    modules it imports; they leave ``sys.modules`` when it returns. It is
    registered under its own name before it runs, so a later ``import
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
            # another thread could import a stand-in while it sits in sys.modules
            lone = threading.active_count() == 1
            stand_ins = [_StandIn(name) for name in _STAND_INS if lone and name not in sys.modules]
            for stand_in in stand_ins:
                vars(stand_in).update(_STAND_INS[stand_in.__name__])
                sys.modules[stand_in.__name__] = stand_in
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_KD_MODULE]
                raise
            finally:
                for stand_in in stand_ins:
                    if sys.modules.get(stand_in.__name__) is stand_in:
                        del sys.modules[stand_in.__name__]
    return module.cKDTree


def _query(tree, pts: np.ndarray, k: int) -> tuple:
    """Each row's k nearest points in ``tree``, nearest first: their kd distances
    and indices in the tree, and whether k covers the tree."""
    k = min(k, tree.n)
    dist, nbr = tree.query(pts, k)
    return dist.reshape(-1, k), nbr.reshape(-1, k), k == tree.n


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


def _short_edges(tree, pts: np.ndarray, first: np.ndarray, m: int) -> tuple | None:
    """Each row's component label after the tree's edges shorter than r (1 - 1e-9),
    and those edges as keys u * m + v; None where the pass does not run."""
    n = len(pts)
    if pts.shape[1] != 2 or n < 2:
        return None
    kth = tree.query(pts[:: max(1, n // 256)], min(8, n))[0][:, -1]
    r = np.sort(kth)[kth.size // 2]
    lo = pts.min(axis=0)
    # int64 cell ids hold spans of 2**30 cells; r = 0 is refused here too
    if not (pts.max(axis=0) - lo <= r * 2**30).all():
        return None
    cells = ((pts - lo) / r).astype(np.int64) @ [1 << 31, 1]
    if 9 * (np.unique(cells, return_counts=True)[1] ** 2).sum() > 50 * n:
        return None
    i, j = tree.query_pairs(r, output_type="ndarray").T
    length = _lengths(pts, i, j)
    kept = length < r * (1 - 1e-9)
    i, j, length = i[kept], j[kept], length[kept]
    comp, keys = np.arange(n), [np.empty(0, np.int64)]
    while True:
        a, b = comp[i], comp[j]
        out = np.flatnonzero(a != b)
        if not out.size:
            return comp, np.concatenate(keys)
        i, j, a, b, length = (col[out] for col in (i, j, a, b, length))
        # each pair is offered from both ends
        best = (np.full(n, np.inf), [(i, j, length), (j, i, length)])
        np.minimum.at(best[0], a, length)
        np.minimum.at(best[0], b, length)
        comp, new = _join(best, comp, first, m)
        keys.append(new)


def _kd_candidates(coords: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Keys u * m + v (u < v) of the tree's edges between the distinct rows ``first``.

    The short edges, where the pass runs, then Borůvka rounds over one
    kd-tree of the rows and a packed table of their nearest points. Each
    searching component joins the one its lightest edge reaches, so the
    m - 1 edges found are the tree.
    """
    cKDTree = _kd_tree_class()
    pts = coords[first]
    n, m = len(pts), len(coords)
    tree = cKDTree(pts)
    comp, keys = _short_edges(tree, pts, first, m) or (np.arange(n), np.empty(0, np.int64))
    keys, found = [keys], keys.size
    width = min(16, n)
    # pos and stop index the flattened table, whose row stop // width - 1
    # holds a point's nearest points; stop is 0 while the point has none
    pos, stop = np.zeros(n, np.int64), np.zeros(n, np.int64)
    dist, nbr = np.empty((0, width)), np.empty((0, width), np.int64)
    while found < n - 1:
        sizes = np.bincount(comp, minlength=n)
        # the largest never searches, since another component's lightest edge
        # reaches it; while all are single points, every point searches at once
        big = sizes.argmax() if sizes.max() > 1 else -1
        rows = np.flatnonzero((stop == 0) & (comp != big))
        if rows.size:
            near = _query(tree, pts if rows.size == n else pts[rows], 16)
            pos[rows] = (len(dist) + np.arange(rows.size)) * width
            stop[rows] = pos[rows] + width
            dist, nbr = (np.concatenate([old, add]) if len(old) else add
                         for old, add in zip((dist, nbr), near))
        rows = active = np.flatnonzero((pos < stop) & (comp != big))
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
            slots = stop[active[wide]] // width - 1
            _offer_rows(pts, comp, best, active[wide], dist[slots], nbr[slots])
        todo = np.flatnonzero(comp != big)
        # a table that holds every point settles at the first wider query
        todo = todo[dist[stop[todo] // width - 1, -1] * (1 - 1e-9) <= best[0][comp[todo]]]
        small = (sizes[comp[todo]] < 64) | np.isfinite(best[0][comp[todo]])
        large, todo = todo[~small], todo[small]
        for k in (32, 64):
            if todo.size:
                todo = _offer_rows(pts, comp, best, todo, *_query(tree, pts[todo], k))
        todo = np.concatenate([todo, large])
        for c in np.flatnonzero(np.bincount(comp[todo])):
            outside = np.flatnonzero(comp != c)
            # built anew per component and round: the unbalanced build is cheaper
            local = cKDTree(pts[outside], balanced_tree=False, compact_nodes=False)
            pending, k = todo[comp[todo] == c], 8
            while pending.size:
                odist, onbr, complete = _query(local, pts[pending], k)
                pending = _offer_rows(pts, comp, best, pending, odist, outside[onbr], complete)
                k *= 2
        comp, new = _join(best, comp, first, m)
        keys.append(new)
        found += new.size
    return np.concatenate(keys)


def _candidates(coords: np.ndarray) -> np.ndarray:
    """The canonical tree's m - 1 edges as sorted keys u * m + v (u < v)."""
    m, d = coords.shape
    first, rep = _distinct_rows(coords)
    dup = np.flatnonzero(rep != np.arange(m))
    rows = np.arange(len(first))
    tree = _keys(first, rows[:-1], rows[1:], m) if d == 1 else _kd_candidates(coords, first)
    return np.sort(np.concatenate([rep[dup] * m + dup, tree]))


def build_mst_kruskal(ps: PointSet) -> Tree:
    """Build the minimal spanning tree of a point set.

    The tree is the canonical Kruskal tree: edges appear sorted by length
    ascending, ties broken by the canonical (u, v) pair. Each edge carries
    weight(u) * weight(v), and DegenerateStatistic refuses a product that
    overflows. A single point yields a tree with zero edges. Points on a
    line (d = 1) join their sorted neighbours; at d >= 2 the edges come
    from Borůvka rounds over one kd-tree, in O(m) memory.
    """
    coords = ps.coords
    us, vs = np.divmod(_candidates(coords), len(coords))
    lengths = _lengths(coords, us, vs)
    # the keys come sorted, so a stable sort by length breaks ties by (u, v)
    order = np.argsort(lengths, kind="stable")
    us, vs, lengths = us[order], vs[order], lengths[order]
    with np.errstate(over="ignore"):
        weights = ps.weights[us] * ps.weights[vs]
    if not np.isfinite(weights).all():
        raise DegenerateStatistic("edge weights overflow: weight(u) * weight(v) is not finite")
    return Tree(ps, us, vs, lengths, weights)


def tree_total_length(t: Tree) -> float:
    """Sum of all edge lengths; zero for a single-vertex tree."""
    return float(t.lengths.sum())
