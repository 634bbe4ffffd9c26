"""Independent brute-force oracles used by the test suite.

The spanning-tree oracle enumerates every labeled tree on m vertices
through its Prufer sequence (m^(m-2) trees) and returns the minimal total
edge length. Practical up to m = 8 (262144 trees); the trees of each m
are decoded once and reused.

The canonical-tree oracle runs Kruskal over every pair of points in
(length, u, v) order and returns the exact tree the package must build,
edge order and length bits included. Practical up to a few thousand points.
Its scan, a sequential union-find over ranked candidates, is also the
oracle for the package's array merge, and the union-find checks that a
tree is one (``validate_tree``).

Prim's algorithm is a second, differently built tree construction; it
agrees with Kruskal's edge set whenever all pairwise distances differ.

The comparison oracle scans every subject vertex against every reference
vertex and pool edge midpoint, with a stable sort that gives distance ties
to the lowest edge index.

None of these shares an algorithm with the code under test; Prim returns
its result in the package's `Tree` container.

The fit oracle is the package's signal-fraction fit as it stood before the
in-package Brent routines: the same objective, refined by
``scipy.optimize.minimize_scalar(method="bounded")`` and bracketed by
``scipy.optimize.brentq``. The package ports both routines step for step,
so its fits must match this one bit for bit.

The calibration oracle is the exception: it calls the package's own
resampling and tree statistic, because what it checks is the scheduling.
It runs the trials one after another in this process, from the same
spawned seeds, so a calibration on worker processes must reproduce its
statistics bit for bit.

The branch oracle walks each branch from its leaf over a plain adjacency
list and returns the vertices and edges that the package's branch arrays
only total.

``edge_set`` and ``normalize_to`` are plain helpers for the tests: a tree's
edges as a set, and a histogram scaled to another's total weight.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from spantree import (
    BinnedModel,
    DegenerateStatistic,
    FitError,
    FitResult,
    Histogram,
    MstConstraint,
    PointSet,
    Tree,
    observed_mu,
)
from spantree.analysis import _FLAT_TOL, _resample_mixture, resolve_alpha_grid

_CHUNK_ROWS = 512


def edge_set(tree: Tree) -> set[tuple[int, int]]:
    """The tree's edges as a set of (u, v) pairs, whatever their order."""
    return set(zip(tree.edge_u.tolist(), tree.edge_v.tolist()))


def branch_walks(tree: Tree) -> list[tuple[list[int], list[int]]]:
    """Each branch's (vertex path, edge indices), in ascending order of its leaf.

    A branch starts at a leaf and runs through degree-2 vertices to the first
    vertex of another degree. A tree that is a single path is one branch,
    walked from its lowest-index leaf.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(len(tree.source))]
    for e, (u, v) in enumerate(zip(tree.edge_u.tolist(), tree.edge_v.tolist())):
        incident[u].append((e, v))
        incident[v].append((e, u))
    leaves = [x for x, inc in enumerate(incident) if len(inc) == 1]
    if all(len(inc) <= 2 for inc in incident):
        leaves = leaves[:1]
    walks = []
    for leaf in leaves:
        path, edges = [leaf], []
        while True:
            e, nxt = next((e, w) for e, w in incident[path[-1]] if not edges or e != edges[-1])
            path.append(nxt)
            edges.append(e)
            if len(incident[nxt]) != 2:
                break
        walks.append((path, edges))
    return walks


def normalize_to(h: Histogram, reference: Histogram) -> Histogram:
    """``h`` scaled by reference.total / h.total, so the two totals match."""
    if reference.total <= 0:
        raise DegenerateStatistic("reference histogram has non-positive total weight")
    if h.total <= 0:
        raise DegenerateStatistic("histogram has non-positive total weight; cannot normalize")
    return h.scaled(reference.total / h.total)


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


def kruskal_positions(m: int, cand_u: np.ndarray, cand_v: np.ndarray) -> np.ndarray:
    """Positions of the candidates a Kruskal scan in the given order accepts."""
    uf = _UnionFind(m)
    picked = []
    for i, (u, v) in enumerate(zip(cand_u.tolist(), cand_v.tolist())):
        if uf.union(u, v):
            picked.append(i)
            if len(picked) == m - 1:
                break
    return np.array(picked, dtype=np.int64)


def canonical_mst_dense(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge_u, edge_v, lengths) of the canonical all-pairs Kruskal tree."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    m = coords.shape[0]
    us, vs = np.triu_indices(m, 1)
    lengths = pdist(coords)
    order = np.lexsort((vs, us, lengths))
    picked = order[kruskal_positions(m, us[order], vs[order])]
    return us[picked].astype(np.int64), vs[picked].astype(np.int64), lengths[picked]


def validate_tree(tree: Tree) -> None:
    """Structural checks: edge count, connectivity, acyclicity, lengths."""
    m = tree.vertex_count
    if tree.edge_count != m - 1:
        raise AssertionError(f"expected {m - 1} edges, found {tree.edge_count}")
    uf = _UnionFind(m)
    for u, v in zip(tree.edge_u.tolist(), tree.edge_v.tolist()):
        if not uf.union(u, v):
            raise AssertionError(f"edge ({u}, {v}) closes a cycle")
    roots = {uf.find(i) for i in range(m)}
    if len(roots) != 1:
        raise AssertionError(f"tree has {len(roots)} components")
    coords = tree.source.coords
    diffs = coords[tree.edge_u] - coords[tree.edge_v]
    expected = np.sqrt((diffs * diffs).sum(axis=1))
    if tree.edge_count and not np.allclose(tree.lengths, expected, rtol=1e-12, atol=0.0):
        raise AssertionError("stored edge lengths disagree with vertex coordinates")


@lru_cache(maxsize=None)
def _labeled_tree_edges(m: int) -> np.ndarray:
    """Every labeled tree on m >= 3 vertices, one row of m - 1 edges each.

    Row r is the tree of Prufer sequence r; an edge (a, b) is stored as
    the flat index a * m + b of an m x m matrix. The rows depend on m
    alone, so they are decoded once and reused for every point set.
    """
    n_seq = m ** (m - 2)
    seqs = np.stack(
        np.unravel_index(np.arange(n_seq), (m,) * (m - 2)), axis=1
    ).astype(np.int64)

    # decode every sequence in lockstep: repeatedly join the
    # smallest-index leaf to the current sequence symbol
    degree = np.ones((n_seq, m), dtype=np.int16)
    rows = np.arange(n_seq)
    for j in range(m - 2):
        degree[rows, seqs[:, j]] += 1

    edges = np.empty((n_seq, m - 1), dtype=np.int64)
    for j in range(m - 2):
        target = seqs[:, j]
        leaf = np.argmax(degree == 1, axis=1)
        edges[:, j] = leaf * m + target
        degree[rows, leaf] -= 1
        degree[rows, target] -= 1

    first = np.argmax(degree == 1, axis=1)
    degree[rows, first] -= 1
    second = np.argmax(degree == 1, axis=1)
    edges[:, m - 2] = first * m + second
    edges.setflags(write=False)
    return edges


def min_spanning_total_bruteforce(coords: np.ndarray) -> float:
    """Minimum total edge length over all labeled spanning trees."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    m = coords.shape[0]
    if m < 2:
        return 0.0
    dist = squareform(pdist(coords))
    if m == 2:
        return float(dist[0, 1])

    flat = dist.ravel()
    edges = _labeled_tree_edges(m)
    totals = np.zeros(edges.shape[0])
    for j in range(m - 1):
        totals += flat[edges[:, j]]
    return float(totals.min())


def build_mst_prim(ps: PointSet) -> Tree:
    """Build the minimal spanning tree with Prim's algorithm.

    Output edge ordering matches the Kruskal convention: length ascending,
    ties broken by the canonical (u, v) pair.
    """
    m = len(ps)
    if m == 1:
        return Tree(ps, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))

    coords = ps.coords
    best_dist = np.sqrt(((coords - coords[0]) ** 2).sum(axis=1))
    best_dist[0] = np.inf
    best_from = np.zeros(m, dtype=np.int64)
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True

    us = np.empty(m - 1, dtype=np.int64)
    vs = np.empty(m - 1, dtype=np.int64)
    lengths = np.empty(m - 1, dtype=np.float64)
    for i in range(m - 1):
        j = int(np.argmin(best_dist))
        f = int(best_from[j])
        us[i], vs[i] = (f, j) if f < j else (j, f)
        lengths[i] = best_dist[j]
        in_tree[j] = True
        best_dist[j] = np.inf
        dj = np.sqrt(((coords - coords[j]) ** 2).sum(axis=1))
        closer = (dj < best_dist) & ~in_tree
        best_dist[closer] = dj[closer]
        best_from[closer] = j

    order = np.lexsort((vs, us, lengths))
    us, vs, lengths = us[order], vs[order], lengths[order]
    weights = ps.weights[us] * ps.weights[vs]
    return Tree(ps, us, vs, lengths, weights)


def nearest_point_distances_exhaustive(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each query point to its nearest target point."""
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], _CHUNK_ROWS):
        block = queries[start : start + _CHUNK_ROWS]
        out[start : start + block.shape[0]] = cdist(block, targets).min(axis=1)
    return out


def nearest_edge_mean_lengths_exhaustive(
    queries: np.ndarray, midpoints: np.ndarray, lengths: np.ndarray, k: int
) -> np.ndarray:
    """Mean length of the k edges whose midpoints lie nearest each query."""
    k_eff = min(k, midpoints.shape[0])
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], _CHUNK_ROWS):
        block = queries[start : start + _CHUNK_ROWS]
        d = cdist(block, midpoints)
        # stable sort keeps the lowest edge index on distance ties
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k_eff]
        out[start : start + block.shape[0]] = lengths[nearest].mean(axis=1)
    return out


def connection_lengths_exhaustive(subject: Tree, reference: Tree) -> np.ndarray:
    """Per subject vertex, the distance to the nearest reference vertex."""
    return nearest_point_distances_exhaustive(subject.source.coords, reference.source.coords)


def connection_ratios_exhaustive(
    subject: Tree, reference: Tree, k: int, edge_pool: str = "reference"
) -> np.ndarray:
    """Connection length over the mean length of the k nearest pool edges.

    A zero local mean gives an infinite ratio.
    """
    pool = reference if edge_pool == "reference" else subject
    c = connection_lengths_exhaustive(subject, reference)
    coords = pool.source.coords
    midpoints = 0.5 * (coords[pool.edge_u] + coords[pool.edge_v])
    local_mean = nearest_edge_mean_lengths_exhaustive(
        subject.source.coords, midpoints, pool.lengths, k
    )
    ratio = np.full(c.shape, np.inf)
    np.divide(c, local_mean, out=ratio, where=local_mean != 0)
    return ratio


def calibration_mu_serial(
    background: PointSet, signal: PointSet, alphas, trials: int, seed: int, count: int
) -> np.ndarray:
    """``mu_samples`` of a calibration, the trials run in a plain loop."""
    seqs = np.random.SeedSequence(seed).spawn(len(alphas) * trials)
    mu = np.empty((len(alphas), trials))
    for i, alpha in enumerate(alphas):
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(seqs[i * trials + t]))
            mu[i, t] = observed_mu(_resample_mixture(background, signal, count, float(alpha), rng))
    return mu


def fit_alpha_scipy(
    model: BinnedModel,
    constraint: MstConstraint | None = None,
    alpha_grid: int | Sequence[float] = 201,
) -> FitResult:
    """``fit_alpha`` with scipy's bounded minimizer and ``brentq``."""
    from scipy.optimize import minimize_scalar

    alphas = resolve_alpha_grid(alpha_grid)
    b, s, n = model.background, model.signal, model.observed
    occupied = n > 0

    def q_of(alpha: float) -> float:
        p = (1.0 - alpha) * b + alpha * s
        bad = occupied & (p <= 0.0)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise FitError(
                f"mixture probability vanishes in occupied bin {j} at alpha={alpha:g}"
            )
        q = -2.0 * float((n[occupied] * np.log(p[occupied])).sum())
        if constraint is not None:
            q += float(constraint.penalty(alpha))
        return q

    curve = np.array([q_of(a) for a in alphas])
    mode = "baseline" if constraint is None else "augmented"
    q_curve = np.column_stack([alphas, curve])

    i_min = int(np.argmin(curve))
    spread = float(curve.max() - curve.min())
    if spread <= _FLAT_TOL * max(1.0, abs(float(curve.min()))):
        # unidentifiable: Q carries no information about the fraction
        return FitResult(float(alphas[i_min]), math.inf, q_curve, mode, float(curve[i_min]))

    lo_b = float(alphas[max(i_min - 1, 0)])
    hi_b = float(alphas[min(i_min + 1, alphas.size - 1)])
    alpha_hat = float(alphas[i_min])
    q_min = float(curve[i_min])
    if hi_b > lo_b:
        res = minimize_scalar(
            q_of, bounds=(lo_b, hi_b), method="bounded", options={"xatol": 1e-12}
        )
        if res.fun <= q_min:
            alpha_hat, q_min = float(res.x), float(res.fun)

    sigma = interval_halfwidth_scipy(q_of, alphas, curve, alpha_hat, q_min)
    return FitResult(alpha_hat, sigma, q_curve, mode, q_min)


def interval_halfwidth_scipy(q_of, alphas, curve, alpha_hat, q_min) -> float:
    """Half-width of the interval where Q <= Q_min + 1."""
    from scipy.optimize import brentq

    target = q_min + 1.0

    def crossing(side: str) -> float | None:
        if side == "left":
            idx = np.flatnonzero((alphas < alpha_hat) & (curve > target))
            if idx.size == 0:
                return None
            a, bnd = float(alphas[idx[-1]]), alpha_hat
        else:
            idx = np.flatnonzero((alphas > alpha_hat) & (curve > target))
            if idx.size == 0:
                return None
            a, bnd = alpha_hat, float(alphas[idx[0]])
        return float(brentq(lambda x: q_of(x) - target, a, bnd, xtol=1e-12))

    left = crossing("left")
    right = crossing("right")
    if left is None and right is None:
        return math.inf
    lo = left if left is not None else float(alphas[0])
    hi = right if right is not None else float(alphas[-1])
    return 0.5 * (hi - lo)
