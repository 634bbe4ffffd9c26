"""Two-tree comparison statistics: connection lengths and connection ratios.

For every vertex of a subject tree, the connection length is the distance
to the nearest vertex of a reference tree. The comparison is directional:
measuring a dense tree against a sparse one is not the same as the
converse. The connection ratio divides each connection length by the mean
length of the k edges nearest to that vertex, turning raw separation into
a local-density-aware anomaly score.

Edge-to-vertex proximity uses the edge midpoint, which is a cheap and
deterministic stand-in for a local density probe. The k-edge pool defaults
to the reference tree (separation judged against the reference's local
density) and can be switched to the subject tree.

Both searches run on a kd-tree (scipy's compiled ``cKDTree``, loaded by
``mst._kd_tree_class`` without the rest of ``scipy.spatial``) at every input
size. Among edges at equal distance the lowest edge index wins, so the
result does not depend on how the kd-tree orders ties. The test suite
checks both statistics bit for bit against an exhaustive all-pairs scan.
From eight dimensions on, the kd-tree sums squared coordinate differences
in four interleaved partial sums, so a distance can differ from a plain
left-to-right sum in its last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatistic, DimensionMismatch
from .geometry import squared_span
from .mst import Tree, _kd_tree_class

EDGE_POOLS = ("reference", "subject")


@dataclass(frozen=True)
class ComparisonResult:
    """Per-subject-vertex connection lengths and ratios, in vertex order."""

    connection_length: np.ndarray
    connection_ratio: np.ndarray
    weights: np.ndarray


def _nearest_edge_mean_lengths(
    queries: np.ndarray, midpoints: np.ndarray, lengths: np.ndarray, k: int
) -> np.ndarray:
    """Mean length of the k edges whose midpoints lie nearest each query.

    Equal distances go to the lowest edge index. The kd-tree breaks ties in
    no fixed order, so each query asks for a few neighbours more than k; a
    row is settled once its last returned distance exceeds its k-th (every
    edge tied with the k-th is then among those returned) or once every edge
    was returned. Unsettled rows ask again for twice as many.
    """
    n_edges = midpoints.shape[0]
    k_eff = min(k, n_edges)
    index = _kd_tree_class()(midpoints)
    out = np.empty(queries.shape[0])
    rows = np.arange(queries.shape[0])
    n = k_eff + 4
    while rows.size:
        n = min(n, n_edges)
        dist, idx = index.query(queries[rows], k=n)
        dist = dist.reshape(rows.size, n)
        idx = idx.reshape(rows.size, n)
        done = (dist[:, -1] > dist[:, k_eff - 1]) | (n == n_edges)
        order = np.lexsort((idx[done], dist[done]))[:, :k_eff]
        nearest = np.take_along_axis(idx[done], order, axis=1)
        out[rows[done]] = lengths[nearest].mean(axis=1)
        rows = rows[~done]
        n *= 2
    return out


def connection_lengths(subject: Tree, reference: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-subject-vertex (nearest-reference-vertex distances, weights) arrays.

    Directional: swapping subject and reference generally changes the
    distribution. Identical trees give zero everywhere.
    """
    sub, ref = subject.source, reference.source
    if sub.dimension != ref.dimension:
        raise DimensionMismatch(
            f"trees live in different feature spaces: {sub.dimension} vs {ref.dimension}"
        )
    if not np.isfinite(squared_span(sub.coords, ref.coords)):
        raise DegenerateStatistic("the two samples lie too far apart: squared distances overflow")
    return _kd_tree_class()(ref.coords).query(sub.coords, k=1)[0], sub.weights


def connection_ratios(
    subject: Tree,
    reference: Tree,
    k: int = 5,
    edge_pool: str = "reference",
) -> ComparisonResult:
    """Connection length over local mean edge length, per subject vertex.

    For each subject vertex the connection length is divided by the mean
    length of the k pool edges nearest the vertex (all of them if the pool
    has fewer than k). A zero local mean (coincident points) yields an
    infinite ratio.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if edge_pool not in EDGE_POOLS:
        raise ValueError(f"edge_pool must be one of {EDGE_POOLS}, got {edge_pool!r}")
    c, weights = connection_lengths(subject, reference)
    pool = reference if edge_pool == "reference" else subject
    if pool.edge_count == 0:
        raise DegenerateStatistic(f"{edge_pool} tree has no edges to pool")

    coords = pool.source.coords
    midpoints = 0.5 * (coords[pool.edge_u] + coords[pool.edge_v])
    local_mean = _nearest_edge_mean_lengths(subject.source.coords, midpoints, pool.lengths, k)

    ratio = np.full(c.shape, np.inf)
    np.divide(c, local_mean, out=ratio, where=local_mean != 0)
    return ComparisonResult(c, ratio, weights)
