"""Single-tree statistics and weighted histograms.

The statistics of one tree are the edge lengths, the normalized edge
lengths (each length divided by the mean edge length) and their logs, the
vertex degrees, and the branch decomposition. A branch is a chain of edges
hanging off a loose end: it starts at a leaf and runs through degree-2
vertices until it hits a junction (degree >= 3, the final edge into the
junction included) or, for a tree that is a single path, the opposite leaf.
Edges joining two junctions belong to no branch.

Weighting conventions: the mean edge length is the edge-weight-weighted
mean, so edges suppressed by region weighting drop out of the
normalization; a branch's weight is the product of its member edge
weights; degree entries carry the vertex weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatistic
from .mst import Tree


@dataclass(frozen=True)
class Branch:
    """A leaf-rooted chain of edges through degree-2 vertices."""

    vertex_path: tuple[int, ...]
    edge_indices: tuple[int, ...]
    length: float
    weight: float


@dataclass(frozen=True)
class TreeStatsSummary:
    """Headline numbers for one tree."""

    mean_edge_length: float
    edge_count: int
    mean_log_norm_length: float
    degree_counts: dict[int, float]
    branch_count: int


def edge_lengths(t: Tree) -> list[tuple[float, float]]:
    """Per-edge (length, weight) pairs in tree edge order."""
    if t.edge_count == 0:
        raise DegenerateStatistic("edge statistics are undefined for a tree with no edges")
    return list(zip(t.lengths.tolist(), t.edge_weights.tolist()))


def mean_edge_length(t: Tree) -> float:
    """Weighted mean edge length; the normalization scale for the tree."""
    if t.edge_count == 0:
        raise DegenerateStatistic("mean edge length is undefined for a tree with no edges")
    wsum = float(t.edge_weights.sum())
    if wsum <= 0:
        raise DegenerateStatistic("all edge weights are zero; mean edge length is undefined")
    return float((t.lengths * t.edge_weights).sum() / wsum)


def _normalized(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    mean = mean_edge_length(t)
    if mean == 0:
        raise DegenerateStatistic("mean edge length is zero (all points coincident)")
    return t.lengths / mean, t.edge_weights


def normalized_lengths(t: Tree) -> list[tuple[float, float]]:
    """Per-edge (length / mean length, weight) pairs."""
    norm, w = _normalized(t)
    return list(zip(norm.tolist(), w.tolist()))


def log_normalized_lengths(t: Tree) -> list[tuple[float, float]]:
    """Per-edge (ln of normalized length, weight) pairs.

    Coincident points produce zero-length edges whose entry is -inf.
    """
    norm, w = _normalized(t)
    with np.errstate(divide="ignore"):
        logs = np.log(norm)
    return list(zip(logs.tolist(), w.tolist()))


def mean_log_norm_length(t: Tree) -> float:
    """Weighted mean of the log normalized edge length distribution."""
    norm, w = _normalized(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float((np.log(norm) * w).sum() / w.sum())


def degrees(t: Tree) -> list[tuple[int, float]]:
    """Per-vertex (degree, vertex weight) pairs."""
    w = t.source.weights
    return [(len(adj), float(w[i])) for i, adj in enumerate(t.adjacency)]


def extract_branches(t: Tree) -> list[Branch]:
    """Decompose a tree into its branches.

    A tree that is a pure path (both ends leaves, interior all degree 2)
    yields exactly one branch containing every vertex. Otherwise each leaf
    starts one branch ending at the first junction reached.
    """
    if t.edge_count == 0:
        raise DegenerateStatistic("branch decomposition is undefined for a tree with no edges")

    deg = [len(adj) for adj in t.adjacency]
    leaves = sorted(i for i, d in enumerate(deg) if d == 1)
    edge_w = t.edge_weights
    lengths = t.lengths

    def walk(start: int) -> Branch:
        path = [start]
        edges: list[int] = []
        prev_edge = -1
        cur = start
        while True:
            nxt_edge = next(e for e in t.adjacency[cur] if e != prev_edge)
            nxt = t.other_end(nxt_edge, cur)
            edges.append(nxt_edge)
            path.append(nxt)
            if deg[nxt] != 2:
                break
            prev_edge = nxt_edge
            cur = nxt
        total = float(lengths[edges].sum())
        weight = float(np.prod(edge_w[edges]))
        return Branch(tuple(path), tuple(edges), total, weight)

    if max(deg) <= 2:
        # pure path: one branch from the lowest-index leaf to the other
        return [walk(leaves[0])]
    return [walk(leaf) for leaf in leaves]


def summarize(t: Tree) -> TreeStatsSummary:
    """Compute the headline statistics of one tree."""
    mean = mean_edge_length(t)
    mu = mean_log_norm_length(t)
    counts: dict[int, float] = {}
    for d, w in degrees(t):
        counts[d] = counts.get(d, 0.0) + w
    branches = extract_branches(t) if t.edge_count else []
    return TreeStatsSummary(
        mean_edge_length=mean,
        edge_count=t.edge_count,
        mean_log_norm_length=mu,
        degree_counts=counts,
        branch_count=len(branches),
    )


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin weighted histogram on [lo, hi).

    When ``folds_overflow`` is set, entries at or above ``hi`` are
    accumulated into the final bin; otherwise they land in the separate
    ``overflow`` counter. Entries below ``lo`` always go to ``underflow``.
    """

    lo: float
    hi: float
    nbins: int
    contents: np.ndarray
    underflow: float = 0.0
    overflow: float = 0.0
    folds_overflow: bool = True

    def __post_init__(self) -> None:
        contents = np.asarray(self.contents, dtype=np.float64)
        contents.setflags(write=False)
        object.__setattr__(self, "contents", contents)

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nbins + 1)

    @property
    def total(self) -> float:
        return float(self.contents.sum() + self.underflow + self.overflow)

    def scaled(self, factor: float) -> "Histogram":
        return Histogram(
            self.lo,
            self.hi,
            self.nbins,
            self.contents * factor,
            self.underflow * factor,
            self.overflow * factor,
            self.folds_overflow,
        )


def histogram(values, lo: float, hi: float, nbins: int, overflow: bool = True) -> Histogram:
    """Histogram (value, weight) pairs into ``nbins`` uniform bins on [lo, hi).

    ``values`` is any sequence of (value, weight) pairs. With ``overflow``
    set, values >= hi accumulate into the final bin; values < lo always go
    to the underflow counter reported separately. Bin contents are weight
    sums, so the grand total (bins + underflow + overflow) equals the total
    input weight.
    """
    if not math.isfinite(lo) or not math.isfinite(hi) or lo >= hi:
        raise ValueError(f"invalid histogram range [{lo}, {hi})")
    if nbins < 1:
        raise ValueError(f"nbins must be positive, got {nbins}")

    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return Histogram(lo, hi, nbins, np.zeros(nbins), 0.0, 0.0, overflow)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("values must be (value, weight) pairs")

    vals, w = arr[:, 0], arr[:, 1]
    under = vals < lo
    over = vals >= hi
    inside = ~(under | over)
    idx = np.floor((vals[inside] - lo) / (hi - lo) * nbins).astype(np.int64)
    np.clip(idx, 0, nbins - 1, out=idx)
    # bincount gives an integer array when nothing lands inside; folding a
    # fractional overflow weight into it would truncate that weight
    contents = np.bincount(idx, weights=w[inside], minlength=nbins).astype(np.float64)

    under_w = float(w[under].sum())
    over_w = float(w[over].sum())
    if overflow:
        contents[nbins - 1] += over_w
        over_w = 0.0
    return Histogram(lo, hi, nbins, contents, under_w, over_w, overflow)


def normalize_to(h: Histogram, reference: Histogram) -> Histogram:
    """Scale ``h`` so its total weight matches the reference histogram's.

    The scale factor is reference.total / h.total. When two same-size trees
    are overlaid, their branch-count histograms should instead be scaled by
    the factor taken from the log-normalized-length pair, since equally
    sized trees need not have equally many branches; use
    :meth:`Histogram.scaled` with that factor for those.
    """
    if reference.total <= 0:
        raise DegenerateStatistic("reference histogram has non-positive total weight")
    if h.total <= 0:
        raise DegenerateStatistic("histogram has non-positive total weight; cannot normalize")
    return h.scaled(reference.total / h.total)
