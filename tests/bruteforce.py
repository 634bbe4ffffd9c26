"""Independent brute-force oracles used by the test suite.

The spanning-tree oracle enumerates every labeled tree on m vertices
through its Prufer sequence (m^(m-2) trees) and returns the minimal total
edge length. Practical up to m = 8 (262144 trees); the trees of each m
are decoded once and reused.

The canonical-tree oracle runs Kruskal over every pair of points in
(length, u, v) order and returns the exact tree the package must build,
edge order and length bits included. Practical up to a few thousand points.

Prim's algorithm is a second, differently built tree construction; it
agrees with Kruskal's edge set whenever all pairwise distances differ.

The comparison oracle scans every subject vertex against every reference
vertex and pool edge midpoint, with a stable sort that gives distance ties
to the lowest edge index.

None of these shares an algorithm with the code under test; Prim returns
its result in the package's `Tree` container.

The calibration oracle is the exception: it calls the package's own
resampling and tree statistic, because what it checks is the scheduling.
It runs the trials one after another in this process, from the same
spawned seeds, so a calibration on worker processes must reproduce its
statistics bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from spantree import PointSet, Tree, observed_mu
from spantree.analysis import _resample_mixture

_CHUNK_ROWS = 512


def canonical_mst_dense(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge_u, edge_v, lengths) of the canonical all-pairs Kruskal tree."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    m = coords.shape[0]
    us, vs = np.triu_indices(m, 1)
    lengths = pdist(coords)
    order = np.lexsort((vs, us, lengths))

    parent = list(range(m))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for i in order.tolist():
        ru, rv = root(int(us[i])), root(int(vs[i]))
        if ru != rv:
            parent[ru] = rv
            picked.append(i)
            if len(picked) == m - 1:
                break
    picked = np.array(picked, dtype=np.int64)
    return us[picked].astype(np.int64), vs[picked].astype(np.int64), lengths[picked]


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
