"""Independent brute-force oracles used by the test suite.

The spanning-tree oracle enumerates every labeled tree on m vertices
through its Prufer sequence (m^(m-2) trees) and returns the minimal total
edge length. Practical up to m = 8 (262144 trees).

The canonical-tree oracle runs Kruskal over every pair of points in
(length, u, v) order and returns the exact tree the package must build,
edge order and length bits included. Practical up to a few thousand points.

Neither shares code with the construction algorithms under test.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform


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

    totals = np.zeros(n_seq)
    for j in range(m - 2):
        target = seqs[:, j]
        leaf = np.argmax(degree == 1, axis=1)
        totals += dist[leaf, target]
        degree[rows, leaf] -= 1
        degree[rows, target] -= 1

    first = np.argmax(degree == 1, axis=1)
    degree[rows, first] -= 1
    second = np.argmax(degree == 1, axis=1)
    totals += dist[first, second]
    return float(totals.min())
