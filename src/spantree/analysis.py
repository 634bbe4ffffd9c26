"""Event-sample analysis: region weighting, calibration, and the signal-fraction fit.

Region weighting multiplies per-event weights by an inside/outside factor
for an axis-aligned box; the structure of any tree built afterwards is
unchanged, only the weights entering histograms and means are affected
(edge weights are the product of their endpoint weights).

The signal-fraction fit is a binned likelihood over a 2-d feature plane:

    Q(alpha) = -2 * sum_j n_j * ln[(1 - alpha) * B_j + alpha * S_j]

with B and S the unit-normalized background and signal templates and n the
observed counts. The tree-based augmentation adds a quadratic penalty

    + (mu_obs - mu(alpha))^2 / sigma_mu^2

where mu(alpha) is the calibrated line for the mean log normalized edge
length as a function of the signal fraction, so disagreement between the
observed tree's mean and the calibration increases Q. The minimum is found
by a grid scan refined with a bounded scalar minimization, and the quoted
uncertainty is half the width of the Q_min + 1 interval.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import mst
from .errors import DegenerateStatistic, FitError
from .geometry import PointSet
from .mst import build_mst_kruskal
from .stats import mean_log_norm_length

_FLAT_TOL = 1e-12


@dataclass(frozen=True)
class RegionWeight:
    """Axis-aligned box with inside/outside weight factors.

    ``box`` maps a feature (index or name) to (lo, hi) bounds; either bound
    may be None for an open end. A point is inside when every constrained
    coordinate lies strictly between its bounds, matching the usual
    strict-inequality convention for suppression rectangles.
    """

    box: Mapping[int | str, tuple[float | None, float | None]]
    inside_weight: float
    outside_weight: float

    def __post_init__(self) -> None:
        if self.inside_weight < 0 or self.outside_weight < 0:
            raise ValueError("region weights must be non-negative")
        object.__setattr__(self, "box", dict(self.box))

    def inside_mask(self, ps: PointSet) -> np.ndarray:
        mask = np.ones(len(ps), dtype=bool)
        for feature, (lo, hi) in self.box.items():
            col = ps.coords[:, ps.feature_index(feature)]
            if lo is not None:
                mask &= col > lo
            if hi is not None:
                mask &= col < hi
        return mask


def apply_region_weights(ps: PointSet, rw: RegionWeight) -> PointSet:
    """Multiply each point's weight by the inside or outside factor.

    Coordinates are untouched, so trees built from the result have exactly
    the same edge set as before; only weights differ.
    """
    inside = rw.inside_mask(ps)
    factors = np.where(inside, rw.inside_weight, rw.outside_weight)
    return ps.with_weights(ps.weights * factors)


@dataclass(frozen=True)
class GridBinning:
    """Rectangular binning of a 2-d feature plane.

    Bin index runs x-major: bin = ix * (len(y_edges) - 1) + iy. Events
    outside the covered rectangle are dropped from the binned counts.
    """

    x_feature: int | str
    y_feature: int | str
    x_edges: tuple[float, ...]
    y_edges: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_edges", tuple(float(e) for e in self.x_edges))
        object.__setattr__(self, "y_edges", tuple(float(e) for e in self.y_edges))
        for edges in (self.x_edges, self.y_edges):
            if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError("bin edges must be strictly increasing with >= 2 entries")
        if self.n_bins < 2:
            raise ValueError("a binned model needs at least two bins")

    @property
    def n_bins(self) -> int:
        return (len(self.x_edges) - 1) * (len(self.y_edges) - 1)

    def weighted_counts(self, ps: PointSet) -> np.ndarray:
        x = ps.coords[:, ps.feature_index(self.x_feature)]
        y = ps.coords[:, ps.feature_index(self.y_feature)]
        xe = np.asarray(self.x_edges)
        ye = np.asarray(self.y_edges)
        ix = np.searchsorted(xe, x, side="right") - 1
        iy = np.searchsorted(ye, y, side="right") - 1
        nx, ny = len(xe) - 1, len(ye) - 1
        ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        flat = ix[ok] * ny + iy[ok]
        return np.bincount(flat, weights=ps.weights[ok], minlength=self.n_bins)

    def to_dict(self) -> dict[str, Any]:
        return {
            "x_feature": self.x_feature,
            "y_feature": self.y_feature,
            "x_edges": list(self.x_edges),
            "y_edges": list(self.y_edges),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GridBinning":
        return cls(d["x_feature"], d["y_feature"], tuple(d["x_edges"]), tuple(d["y_edges"]))


@dataclass(frozen=True)
class BinnedModel:
    """Unit-normalized background/signal templates plus observed counts."""

    background: np.ndarray
    signal: np.ndarray
    observed: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.background, dtype=np.float64)
        s = np.asarray(self.signal, dtype=np.float64)
        n = np.asarray(self.observed, dtype=np.float64)
        if not (b.shape == s.shape == n.shape) or b.ndim != 1:
            raise ValueError("background, signal, and observed must be equal-length vectors")
        if b.size < 2:
            raise ValueError("a binned model needs at least two bins")
        if np.any(b < 0) or np.any(s < 0) or np.any(n < 0):
            raise ValueError("bin contents must be non-negative")
        for name, pdf in (("background", b), ("signal", s)):
            if abs(pdf.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} template must sum to 1, got {pdf.sum()!r}")
        for arr in (b, s, n):
            arr.setflags(write=False)
        object.__setattr__(self, "background", b)
        object.__setattr__(self, "signal", s)
        object.__setattr__(self, "observed", n)

    @property
    def n_bins(self) -> int:
        return int(self.background.size)

    @classmethod
    def from_samples(
        cls,
        background: PointSet,
        signal: PointSet,
        observed: PointSet,
        binning: GridBinning,
    ) -> "BinnedModel":
        b = binning.weighted_counts(background)
        s = binning.weighted_counts(signal)
        n = binning.weighted_counts(observed)
        if b.sum() <= 0 or s.sum() <= 0:
            raise ValueError("templates must have positive total weight inside the binning")
        return cls(b / b.sum(), s / s.sum(), n)

    def asimov(self, alpha: float, total: float) -> "BinnedModel":
        """Replace observed counts with their expectation at a given fraction."""
        expected = total * ((1.0 - alpha) * self.background + alpha * self.signal)
        return BinnedModel(self.background, self.signal, expected)


@dataclass(frozen=True)
class MstConstraint:
    """Calibrated mean-log-normalized-length constraint for the fit."""

    mu_obs: float
    slope: float
    intercept: float
    sigma_l: float

    def __post_init__(self) -> None:
        if not self.sigma_l > 0:
            raise ValueError(f"sigma_l must be positive, got {self.sigma_l}")

    def mu_at(self, alpha) -> np.ndarray | float:
        return self.intercept + self.slope * np.asarray(alpha, dtype=np.float64)

    def penalty(self, alpha) -> np.ndarray | float:
        return (self.mu_obs - self.mu_at(alpha)) ** 2 / self.sigma_l**2


@dataclass(frozen=True)
class CalibrationResult:
    """Line fit of the mean log normalized edge length versus signal fraction.

    ``mu_samples[i, t]`` is the statistic from trial t of the mixture at
    ``alphas[i]``. ``sigma_l`` is the pooled within-fraction standard
    deviation across trials, i.e. the bootstrap spread of the statistic for
    a single sample.
    """

    alphas: np.ndarray
    mu_samples: np.ndarray
    slope: float
    intercept: float
    slope_stderr: float
    sigma_l: float

    def mu_at(self, alpha) -> np.ndarray | float:
        return self.intercept + self.slope * np.asarray(alpha, dtype=np.float64)

    def constraint(self, mu_obs: float) -> MstConstraint:
        return MstConstraint(mu_obs, self.slope, self.intercept, self.sigma_l)


def observed_mu(ps: PointSet) -> float:
    """Mean log normalized edge length of the tree built over a sample."""
    return mean_log_norm_length(build_mst_kruskal(ps))


def _resample_mixture(
    background: PointSet, signal: PointSet, count: int, alpha: float, rng
) -> PointSet:
    # draws are without replacement: duplicated points would create
    # zero-length edges whose log normalized length is -inf
    n_sig = int(rng.binomial(count, alpha))
    n_bg = count - n_sig
    coords, weights = [], []
    if n_bg:
        idx = rng.choice(len(background), size=n_bg, replace=False)
        coords.append(background.coords[idx])
        weights.append(background.weights[idx])
    if n_sig:
        idx = rng.choice(len(signal), size=n_sig, replace=False)
        coords.append(signal.coords[idx])
        weights.append(signal.weights[idx])
    return PointSet(np.vstack(coords), np.concatenate(weights))


def _trial_mu(inputs: tuple, j: int) -> float:
    """The statistic of calibration trial ``j``, numbered fraction-major."""
    background, signal, count, alphas, trials, seqs = inputs
    rng = np.random.Generator(np.random.PCG64(seqs[j]))
    return observed_mu(
        _resample_mixture(background, signal, count, float(alphas[j // trials]), rng)
    )


# the calibration inputs, set by the pool initializer in each worker process
_worker_inputs: tuple = ()


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_trial_mu(j: int) -> float:
    return _trial_mu(_worker_inputs, j)


def _trial_workers(n_trials: int, count: int) -> int:
    """Worker processes for ``n_trials`` calibration trees of ``count`` points.

    One per usable CPU, at most one per trial, and no more than the
    all-pairs builds of ``count`` points that fit in free memory at once.
    The cap holds at every dimension, since a d <= 3 mixture with
    near-duplicate points also builds on all pairs.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    workers = min(workers, n_trials)
    free = mst._free_memory_bytes()
    if free is not None:
        workers = min(workers, free // mst.all_pairs_bytes(count))
    return max(workers, 1)


def _trial_values(inputs: tuple, n_trials: int) -> Iterator[float]:
    """The statistic of every calibration trial, in trial order.

    The trials run in forked worker processes when more than one worker is
    allowed, fork is available, this process is not a daemon and no other
    thread runs; otherwise in this process, one after another.
    """
    import multiprocessing
    import threading

    workers = _trial_workers(n_trials, inputs[2])
    if (
        workers > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        # a fork while another thread runs can copy a lock that thread holds
        and threading.active_count() == 1
    ):
        from concurrent.futures import ProcessPoolExecutor

        # loaded once here, so the forked workers do not each import it again
        import scipy.spatial  # noqa: F401

        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers, mp_context=ctx, initializer=_init_worker, initargs=inputs
        ) as pool:
            # map yields in trial order and raises a worker's error at its
            # trial; a worker that dies raises BrokenProcessPool
            yield from pool.map(_worker_trial_mu, range(n_trials))
    else:
        for j in range(n_trials):
            yield _trial_mu(inputs, j)


def calibrate_mu_vs_alpha(
    background: PointSet,
    signal: PointSet,
    alphas: Sequence[float],
    trials: int,
    seed: int,
    count: int | None = None,
) -> CalibrationResult:
    """Calibrate the tree statistic against the signal fraction.

    For every fraction in ``alphas`` and every trial, a mixture of ``count``
    events is subsampled (without replacement, so points stay distinct)
    from the two component samples, its tree is built, and the mean log
    normalized edge length recorded; a least-squares line through all
    (fraction, statistic) points gives the calibration. Requires at least
    two distinct fractions, two trials, and components at least ``count``
    events each. ``count`` defaults to the smaller component size.

    The trials run in forked worker processes, one per usable CPU, capped
    by the trial count and by how many all-pairs builds of ``count`` points
    fit in free memory. They run in this process instead when that leaves
    one worker, fork is unavailable, this process is a daemon, or other
    threads are running. Each trial draws from its own spawned seed, so the
    result is bit for bit the same for any number of CPUs. The first trial
    in (fraction, trial) order that fails decides the error; a worker
    process that dies raises ``concurrent.futures.process.BrokenProcessPool``.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if alphas.size < 2 or np.unique(alphas).size < 2:
        raise ValueError("calibration needs at least two distinct fraction values")
    if np.any((alphas < 0) | (alphas > 1)):
        raise ValueError("fractions must lie in [0, 1]")
    if trials < 2:
        raise ValueError("calibration needs at least two trials per fraction")
    if count is None:
        count = min(len(background), len(signal))
    if count > len(background) or count > len(signal):
        raise ValueError(
            f"mixture size {count} exceeds a component sample "
            f"({len(background)} background, {len(signal)} signal events)"
        )

    n_trials = alphas.size * trials
    seqs = np.random.SeedSequence(seed).spawn(n_trials)
    values = _trial_values((background, signal, count, alphas, trials, seqs), n_trials)
    mu = np.empty(n_trials)
    try:
        for j, value in enumerate(values):
            if not math.isfinite(value):
                raise DegenerateStatistic(
                    f"mixture at fraction {alphas[j // trials]:g} produced a "
                    "non-finite statistic; coincident points (components "
                    "sharing events?) make the log normalized length undefined"
                )
            mu[j] = value
    finally:
        # cancels the trials not yet started when one fails
        values.close()
    mu = mu.reshape(alphas.size, trials)

    x = np.repeat(alphas, trials)
    y = mu.ravel()
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(y.size - 2, 1)
    slope_stderr = float(math.sqrt((resid**2).sum() / dof / sxx))
    sigma_l = float(np.sqrt(mu.var(axis=1, ddof=1).mean()))
    return CalibrationResult(alphas, mu, slope, intercept, slope_stderr, sigma_l)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a signal-fraction fit.

    ``q_min`` is the objective at ``alpha_hat`` and never exceeds any
    sampled point of ``q_curve``.
    """

    alpha_hat: float
    sigma_alpha: float
    q_curve: np.ndarray
    mode: str
    q_min: float

    def __post_init__(self) -> None:
        curve = np.asarray(self.q_curve, dtype=np.float64)
        curve.setflags(write=False)
        object.__setattr__(self, "q_curve", curve)


def _resolve_alpha_grid(alpha_grid) -> np.ndarray:
    if isinstance(alpha_grid, int):
        if alpha_grid < 3:
            raise ValueError("alpha grid needs at least three samples")
        return np.linspace(0.0, 1.0, alpha_grid)
    grid = np.unique(np.asarray(alpha_grid, dtype=np.float64))
    if grid.size < 3:
        raise ValueError("alpha grid needs at least three samples")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError("alpha grid must lie within [0, 1]")
    return grid


def fit_alpha(
    model: BinnedModel,
    constraint: MstConstraint | None = None,
    alpha_grid: int | Sequence[float] = 201,
) -> FitResult:
    """Minimize the binned objective over the signal fraction.

    Without a constraint the objective is the pure binned likelihood
    (mode "baseline"); with one, the calibrated quadratic penalty is added
    (mode "augmented"). Returns the sampled Q curve, the refined minimum,
    and the half-width of the Q_min + 1 interval; a flat objective (signal
    and background templates identical, no constraint) reports an infinite
    uncertainty.
    """
    from scipy.optimize import minimize_scalar

    alphas = _resolve_alpha_grid(alpha_grid)
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

    sigma = _interval_halfwidth(q_of, alphas, curve, alpha_hat, q_min)
    return FitResult(alpha_hat, sigma, q_curve, mode, q_min)


def _interval_halfwidth(q_of, alphas, curve, alpha_hat, q_min) -> float:
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
