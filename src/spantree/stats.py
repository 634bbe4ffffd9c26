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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateStatistic

if TYPE_CHECKING:
    from .mst import Tree


@contextmanager
def _refuse_overflow(what: str):
    """Raise :class:`DegenerateStatistic` where a float operation inside overflows."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise DegenerateStatistic(f"{what} overflows: the weights are too large") from None


@dataclass(frozen=True)
class TreeStatsSummary:
    """Headline numbers for one tree."""

    mean_edge_length: float
    edge_count: int
    mean_log_norm_length: float
    degree_counts: dict[int, float]
    branch_count: int


def edge_lengths(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (lengths, weights) arrays in tree edge order."""
    if t.edge_count == 0:
        raise DegenerateStatistic("edge statistics are undefined for a tree with no edges")
    return t.lengths, t.edge_weights


def mean_edge_length(t: Tree) -> float:
    """Weighted mean edge length; the normalization scale for the tree."""
    if t.edge_count == 0:
        raise DegenerateStatistic("mean edge length is undefined for a tree with no edges")
    with _refuse_overflow("the weighted mean edge length"):
        wsum = float(t.edge_weights.sum())
        if wsum <= 0:
            raise DegenerateStatistic("all edge weights are zero; mean edge length is undefined")
        return float((t.lengths * t.edge_weights).sum() / wsum)


def normalized_lengths(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (length / mean length, weight) arrays."""
    mean = mean_edge_length(t)
    if mean == 0:
        raise DegenerateStatistic("mean edge length is zero (all points coincident)")
    return t.lengths / mean, t.edge_weights


def log_normalized_lengths(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (ln of normalized length, weight) arrays.

    Coincident points produce zero-length edges whose entry is -inf.
    """
    norm, w = normalized_lengths(t)
    with np.errstate(divide="ignore"):
        return np.log(norm), w


def mean_log_norm_length(t: Tree) -> float:
    """Weighted mean of the log normalized edge length distribution."""
    norm, w = normalized_lengths(t)
    refuse = _refuse_overflow("the weighted mean log normalized length")
    with np.errstate(divide="ignore", invalid="ignore"), refuse:
        return float((np.log(norm) * w).sum() / w.sum())


def degrees(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (degrees, vertex weights) arrays."""
    return t.vertex_degrees(), t.source.weights


def _branch_count(deg: np.ndarray) -> int:
    # one branch per leaf, or a single one for a pure path
    return 1 if deg.max() <= 2 else int((deg == 1).sum())


def extract_branches(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch (total lengths, weights) arrays, one branch per leaf.

    Branches are in ascending order of their starting leaf. A tree that is
    a pure path (both ends leaves, interior all degree 2) yields exactly one
    branch, from its lowest-index leaf to the other. Otherwise each leaf
    starts one branch ending at the first junction reached.
    """
    if t.edge_count == 0:
        raise DegenerateStatistic("branch decomposition is undefined for a tree with no edges")

    # compressed adjacency: the incident edges of vertex x sit in slots
    # start[x], start[x] + 1, ..., each with the neighbour it leads to
    deg = t.vertex_degrees()
    slots = np.argsort(np.concatenate([t.edge_u, t.edge_v]), kind="stable")
    start = (np.cumsum(deg) - deg).tolist()
    slot_edge = (slots % t.edge_count).tolist()
    slot_next = np.concatenate([t.edge_v, t.edge_u])[slots].tolist()
    is_chain = (deg == 2).tolist()

    leaves = np.flatnonzero(deg == 1).tolist()
    if _branch_count(deg) == 1:
        leaves = leaves[:1]
    edges: list[int] = []  # every branch's edges, one branch after another
    ends = []
    for cur in leaves:
        prev_edge = -1
        while True:
            s = start[cur]
            if slot_edge[s] == prev_edge:
                s += 1
            prev_edge = slot_edge[s]
            cur = slot_next[s]
            edges.append(prev_edge)
            if not is_chain[cur]:
                break
        ends.append(len(edges))

    # branches of one size reduce as the rows of a matrix: each row along the
    # contiguous axis, so exactly as its own 1-d .sum() and np.prod() would
    offsets = np.array([0] + ends[:-1])
    sizes = np.array(ends) - offsets
    flat = np.array(edges)
    totals = np.empty(len(ends))
    weights = np.empty(len(ends))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        members = flat[offsets[rows, None] + np.arange(size)]
        totals[rows] = np.add.reduce(t.lengths[members], axis=1)
        with _refuse_overflow("a branch weight, the product of its edge weights,"):
            weights[rows] = np.multiply.reduce(t.edge_weights[members], axis=1)
    return totals, weights


def log_branch_lengths(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch (ln of total length, weight) arrays; zero-length branches are left out."""
    lengths, weights = extract_branches(t)
    keep = lengths > 0
    return np.log(lengths[keep]), weights[keep]


# the per-tree statistics that ``stats`` histograms, by name
STATISTICS = {"edge_length": edge_lengths, "log_norm_length": log_normalized_lengths,
              "degree": degrees, "log_branch_length": log_branch_lengths}


def summarize(t: Tree) -> TreeStatsSummary:
    """Compute the headline statistics of one tree."""
    mean = mean_edge_length(t)
    mu = mean_log_norm_length(t)
    deg, w = degrees(t)
    # bincount adds each degree's weights in vertex order
    totals = np.bincount(deg, weights=w).tolist()
    present = np.flatnonzero(np.bincount(deg)).tolist()
    return TreeStatsSummary(
        mean_edge_length=mean,
        edge_count=t.edge_count,
        mean_log_norm_length=mu,
        degree_counts={d: totals[d] for d in present},
        branch_count=_branch_count(deg),
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


def histogram(
    values, weights, lo: float, hi: float, nbins: int, overflow: bool = True
) -> Histogram:
    """Histogram weighted values into ``nbins`` uniform bins on [lo, hi).

    ``values`` and ``weights`` are equal-length 1-d arrays. With ``overflow``
    set, values >= hi accumulate into the final bin; values < lo always go
    to the underflow counter reported separately. Bin contents are weight
    sums, so the grand total (bins + underflow + overflow) equals the total
    input weight.
    """
    if not math.isfinite(lo) or not math.isfinite(hi) or lo >= hi:
        raise ValueError(f"invalid histogram range [{lo}, {hi})")
    if nbins < 1:
        raise ValueError(f"nbins must be positive, got {nbins}")

    vals = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if vals.ndim != 1 or vals.shape != w.shape:
        raise ValueError("values and weights must be 1-d arrays of equal length")

    under = vals < lo
    over = vals >= hi
    inside = ~(under | over)
    idx = np.floor((vals[inside] - lo) / (hi - lo) * nbins).astype(np.int64)
    np.clip(idx, 0, nbins - 1, out=idx)
    # bincount gives an integer array when nothing lands inside; folding a
    # fractional overflow weight into it would truncate that weight
    contents = np.bincount(idx, weights=w[inside], minlength=nbins).astype(np.float64)

    with _refuse_overflow("a histogram's weight sum"):
        under_w = float(w[under].sum())
        over_w = float(w[over].sum())
        if overflow:
            contents[nbins - 1] += over_w
            over_w = 0.0
    if not np.isfinite(contents).all():  # bincount adds without the overflow check
        raise DegenerateStatistic("a histogram's weight sum overflows: the weights are too large")
    return Histogram(lo, hi, nbins, contents, under_w, over_w, overflow)

