"""Output oracles. They use numpy and scipy only, never spantree's code.

Each ``check_*`` function returns a list of problems; an empty list means
the output was accepted. The benchmark counts a command as failed when its
exit code is nonzero or any check reports a problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay, cKDTree

REL_TOL = 1e-9
CONNECTION_K = 5  # the CLI's default --k


@dataclass(frozen=True)
class TreeOracle:
    """Reference minimal spanning tree of one input."""

    total: float
    longest: float
    us: np.ndarray
    vs: np.ndarray
    lengths: np.ndarray


def _edge_lengths(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    diff = coords[us] - coords[vs]
    return np.sqrt((diff * diff).sum(axis=1))


def _delaunay_graph(coords: np.ndarray):
    """Sparse graph of the Delaunay triangulation's edges, weighted by length."""
    m, d = coords.shape
    simplices = Delaunay(coords).simplices.astype(np.int64)
    corners = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    a = np.concatenate([simplices[:, i] for i, _ in corners])
    b = np.concatenate([simplices[:, j] for _, j in corners])
    keys = np.unique(np.minimum(a, b) * m + np.maximum(a, b))
    us, vs = keys // m, keys % m
    return coo_matrix((_edge_lengths(coords, us, vs), (us, vs)), shape=(m, m)).tocsr()


def mst_oracle(coords: np.ndarray) -> TreeOracle:
    """Exact reference tree over the edges of the Delaunay triangulation.

    The Euclidean minimal spanning tree is a subgraph of the Delaunay
    triangulation in any dimension, so ``minimum_spanning_tree`` over that
    sparse graph has the minimal total length, which is unique even when
    equal lengths make the tree itself ambiguous.
    """
    m = coords.shape[0]
    tree = minimum_spanning_tree(_delaunay_graph(coords)).tocoo()
    us = np.minimum(tree.row, tree.col).astype(np.int64)
    vs = np.maximum(tree.row, tree.col).astype(np.int64)
    if us.size != m - 1:
        raise ValueError(f"oracle tree has {us.size} edges for {m} points (coincident points?)")
    lengths = _edge_lengths(coords, us, vs)
    return TreeOracle(float(lengths.sum()), float(lengths.max()), us, vs, lengths)


def candidates_needed(coords: np.ndarray, longest: float) -> int:
    """Pairs no longer than the longest tree edge: the Kruskal prefix a build must scan."""
    kd = cKDTree(coords)
    ordered = int(kd.count_neighbors(kd, longest * (1.0 + 1e-12)))
    return (ordered - coords.shape[0]) // 2


def _close(a, b, rel: float = REL_TOL) -> bool:
    return bool(np.allclose(a, b, rtol=rel, atol=rel * 1e-3))


def _read_csv_rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def check_tree_csv(path: Path, coords: np.ndarray, weights: np.ndarray | None,
                   oracle: TreeOracle) -> list[str]:
    """m - 1 edges, connected, lengths and weights from the input, minimal total."""
    m = coords.shape[0]
    try:
        rows = _read_csv_rows(path)
        us = np.array([int(r[0]) for r in rows], dtype=np.int64)
        vs = np.array([int(r[1]) for r in rows], dtype=np.int64)
        lengths = np.array([float(r[2]) for r in rows])
        edge_w = np.array([float(r[3]) for r in rows])
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable tree file: {exc}"]
    problems = []
    if us.size != m - 1:
        return [f"{path.name}: {us.size} edges for {m} points"]
    if us.min() < 0 or vs.max() >= m or np.any(us >= vs):
        return [f"{path.name}: edge endpoints out of range or not canonical"]
    graph = coo_matrix((np.ones(us.size), (us, vs)), shape=(m, m))
    if connected_components(graph, directed=False)[0] != 1:
        problems.append(f"{path.name}: edges do not connect all {m} points")
    if not _close(lengths, _edge_lengths(coords, us, vs)):
        problems.append(f"{path.name}: edge lengths disagree with the input coordinates")
    w = np.ones(m) if weights is None else weights
    if not _close(edge_w, w[us] * w[vs]):
        problems.append(f"{path.name}: edge weights are not endpoint-weight products")
    if not _close(lengths.sum(), oracle.total):
        problems.append(f"{path.name}: total length {lengths.sum()!r} != minimal {oracle.total!r}")
    return problems


def check_summary(path: Path, m: int, oracle: TreeOracle) -> list[str]:
    try:
        summary = json.loads(path.read_text())
        total, vertices, edges = summary["total_length"], summary["vertex_count"], summary["edge_count"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable summary: {exc}"]
    problems = []
    if vertices != m or edges != m - 1:
        problems.append(f"{path.name}: {vertices} vertices / {edges} edges for {m} points")
    if not _close(total, oracle.total):
        problems.append(f"{path.name}: total_length {total!r} != minimal {oracle.total!r}")
    return problems


@dataclass(frozen=True)
class ComparisonOracle:
    """Expected connection lengths and ratios of a subject against a reference."""

    lengths: np.ndarray
    ratios: np.ndarray


def comparison_oracle(subject: np.ndarray, reference: np.ndarray,
                      reference_tree: TreeOracle, k: int = CONNECTION_K) -> ComparisonOracle:
    """Nearest reference vertex, and the mean length of the k reference edges
    whose midpoints lie nearest each subject vertex."""
    lengths, _ = cKDTree(reference).query(subject, k=1)
    midpoints = 0.5 * (reference[reference_tree.us] + reference[reference_tree.vs])
    _, idx = cKDTree(midpoints).query(subject, k=k)
    local_mean = reference_tree.lengths[idx].mean(axis=1)
    return ComparisonOracle(lengths, lengths / local_mean)


def check_comparison_csv(path: Path, oracle: ComparisonOracle) -> list[str]:
    try:
        rows = _read_csv_rows(path)
        vertex = np.array([int(r[0]) for r in rows])
        lengths = np.array([float(r[1]) for r in rows])
        ratios = np.array([float(r[2]) for r in rows])
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable comparison table: {exc}"]
    n = oracle.lengths.size
    if vertex.size != n or np.any(vertex != np.arange(n)):
        return [f"{path.name}: expected vertices 0..{n - 1}, found {vertex.size} rows"]
    problems = []
    if not _close(lengths, oracle.lengths):
        problems.append(f"{path.name}: connection_length disagrees with nearest-neighbour query")
    if not _close(ratios, oracle.ratios):
        problems.append(f"{path.name}: connection_ratio disagrees with the k-nearest-edge mean")
    return problems


FIT_FIELDS = (
    ("baseline", "alpha_hat"),
    ("baseline", "sigma_alpha"),
    ("augmented", "alpha_hat"),
    ("augmented", "sigma_alpha"),
    ("calibration", "slope"),
)


def fit_fields(result: dict) -> dict[str, float]:
    return {f"{a}.{b}": float(result[a][b]) for a, b in FIT_FIELDS}


def check_fit_result(path: Path, reference: dict[str, float]) -> list[str]:
    """Fit outputs equal the values recorded at the benchmark's defining commit.

    Parsed fields are compared, not bytes, so fields added later do not count.
    """
    try:
        got = fit_fields(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable fit result: {exc}"]
    return [
        f"{path.name}: {name} = {got[name]!r}, reference {want!r}"
        for name, want in reference.items()
        if not _close(got[name], want)
    ]
