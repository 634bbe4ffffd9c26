"""Event-sample analysis: calibration and the signal-fraction fit.

The signal-fraction fit is a binned likelihood over a 2-d feature plane:

    Q(alpha) = -2 * sum_j n_j * ln[(1 - alpha) * B_j + alpha * S_j]

with B and S the unit-normalized background and signal templates and n the
observed counts. The tree-based augmentation adds a quadratic penalty

    + (mu_obs - mu(alpha))^2 / sigma_mu^2

where mu(alpha) is the calibrated line for the mean log normalized edge
length as a function of the signal fraction, so disagreement between the
observed tree's mean and the calibration increases Q. The minimum is found
by a grid scan refined with Brent's bounded minimizer, and the quoted
uncertainty is half the width of the Q_min + 1 interval, whose ends Brent's
root finder locates. Both routines are in-package ports of scipy's
(``minimize_scalar(method="bounded")`` and ``brentq``), step for step, so
the fit needs no scipy and returns the same bits scipy's routines would.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import CalibrationWorkerError, DegenerateStatistic, FitError
from .geometry import PointSet
from .mst import _kd_tree_class, build_mst_kruskal
from .stats import mean_log_norm_length

_FLAT_TOL = 1e-12


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
            if len(edges) < 2 or not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
                raise ValueError("bin edges must be >= 2 finite, strictly increasing values")
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
        keys = ("x_feature", "y_feature", "x_edges", "y_edges")
        if sorted(d) != sorted(keys):
            raise ValueError(f"a binning takes exactly the keys {keys}, got {sorted(d)}")
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
            # written so that a NaN or infinite content fails it
            if not abs(pdf.sum() - 1.0) <= 1e-9:
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
        with np.errstate(over="ignore"):
            b_total, s_total = b.sum(), s.sum()
        if b_total <= 0 or s_total <= 0:
            raise ValueError("templates must have positive total weight inside the binning")
        if not (b_total < np.inf and s_total < np.inf):
            raise DegenerateStatistic("the templates' total weight inside the binning overflows")
        return cls(b / b_total, s / s_total, n)

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

    def constraint(self, mu_obs: float) -> MstConstraint:
        if not self.sigma_l > 0:
            raise DegenerateStatistic(
                "the statistic does not vary between calibration trials (sigma_l = 0), "
                "so the tree constraint is undefined"
            )
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
    background, signal, count, fractions, seqs = inputs
    rng = np.random.Generator(np.random.PCG64(seqs[j]))
    return observed_mu(_resample_mixture(background, signal, count, float(fractions[j]), rng))


def _trial_workers(n_trials: int) -> int:
    """Processes, this one included, for ``n_trials`` calibration trees:
    one per usable CPU, and at most one per trial."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    return min(workers, n_trials)


def _run_trials(queue: int, block: int, inputs: tuple, n_trials: int) -> dict:
    """{trial: statistic or the exception it raised} for the trials this process
    claims: record k read from the pipe ``queue`` names trials k * block on. A trial
    that raises, a non-finite statistic included, empties the queue, so the others
    stop after their current trial; every earlier trial is claimed already."""
    fractions = inputs[3]
    results = {}
    while record := os.read(queue, 4):
        start = int.from_bytes(record, "little") * block
        for j in range(start, min(start + block, n_trials)):
            try:
                results[j] = _trial_mu(inputs, j)
                if not math.isfinite(results[j]):
                    raise DegenerateStatistic(
                        f"mixture at fraction {fractions[j]:g} produced a "
                        "non-finite statistic; coincident points (components "
                        "sharing events?) make the log normalized length undefined"
                    )
            except Exception as exc:
                results[j] = exc
                while os.read(queue, 4096):
                    pass
                return results
    return results


def _trial_values(inputs: tuple, n_trials: int) -> np.ndarray:
    """The statistic of every calibration trial as one float64 array in trial
    order, or the exception of the first trial in that order that failed.

    This process and ``_trial_workers(n_trials) - 1`` forked children (none
    without fork, or while another thread runs) take trials from one queue.
    A child sends its results pickled on its own pipe, and exits 0 only once
    they are written; one that ends without them raises ``CalibrationWorkerError``.
    """
    # a fork while another thread runs can copy a lock that thread holds
    lone = hasattr(os, "fork") and threading.active_count() == 1
    _kd_tree_class()  # loaded before the first fork, so no child loads it again
    # at most 1,024 4-byte records: one write of 4,096 bytes to an empty pipe never blocks
    block = -(-n_trials // 1024)
    queue, fill = os.pipe()
    os.write(fill, np.arange(-(-n_trials // block), dtype="<u4").tobytes())
    os.close(fill)
    fds, children = [queue], []  # descriptors to close; children not yet reaped
    try:
        for _ in range(_trial_workers(n_trials) - 1 if lone else 0):
            fd, out = os.pipe()
            fds += (fd, out)
            pid = os.fork()
            if pid == 0:
                try:
                    with open(out, "wb") as fh:
                        pickle.dump(_run_trials(queue, block, inputs, n_trials), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append(pid)
            os.close(fds.pop())
        results = _run_trials(queue, block, inputs, n_trials)
        for fd in fds[1:]:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            pid, status = os.waitpid(children[0], 0)
            children.pop(0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise CalibrationWorkerError(f"a calibration worker process died: child {pid} "
                                             f"sent no results (exit code {code})")
            results.update(pickle.loads(data))
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    values = np.empty(n_trials)
    for j in range(n_trials):
        if isinstance(results[j], Exception):
            raise results[j]
        values[j] = results[j]
    return values


def check_calibration(alphas: Sequence[float], trials: int, count: int | None) -> np.ndarray:
    """The calibration fractions as an array, once every setting that needs
    no sample is checked; raises ``ValueError`` naming the first bad one."""
    try:
        alphas = np.asarray(list(alphas), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"calibration fractions must be numbers: {exc}") from None
    if alphas.size < 2 or np.isnan(alphas).all() or (alphas == alphas[0]).all():
        raise ValueError("calibration needs at least two distinct fraction values")
    if not np.all((alphas >= 0) & (alphas <= 1)):
        raise ValueError(f"calibration fractions must lie in [0, 1], got {alphas.tolist()}")
    if trials < 2:
        raise ValueError("calibration needs at least two trials per fraction")
    if count is not None and not (isinstance(count, (int, np.integer)) and count >= 2):
        raise ValueError(f"calibration count must be an integer of at least 2, got {count!r}")
    return alphas


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

    The trials run in this process and its forked children, one process
    per usable CPU, capped by the trial count; every tree build takes
    O(count) memory. They run in this process alone when that leaves one
    process, fork is unavailable, or other threads are running. Each trial
    draws from its own spawned seed, so the result is bit for bit the same
    for any number of CPUs. A trial whose statistic is not finite raises
    :class:`~spantree.errors.DegenerateStatistic`, and the first trial in
    (fraction, trial) order that raises decides the error; a child that dies
    raises :class:`~spantree.errors.CalibrationWorkerError`.
    """
    alphas = check_calibration(alphas, trials, count)
    if count is None:
        count = min(len(background), len(signal))
    if count > len(background) or count > len(signal):
        raise ValueError(
            f"mixture size {count} exceeds a component sample "
            f"({len(background)} background, {len(signal)} signal events)"
        )
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    x = np.repeat(alphas, trials)  # each trial's fraction, fraction-major
    seqs = np.random.SeedSequence(seed).spawn(x.size)
    y = _trial_values((background, signal, count, x, seqs), x.size)
    mu = y.reshape(alphas.size, trials)
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


def resolve_alpha_grid(alpha_grid) -> np.ndarray:
    """The fit's fraction grid: that many evenly spaced points on [0, 1] for an
    int, else the given points, all in [0, 1] (so none NaN), sorted without repeats."""
    if isinstance(alpha_grid, int):
        if alpha_grid < 3:
            raise ValueError("alpha grid needs at least three samples")
        return np.linspace(0.0, 1.0, alpha_grid)
    grid = np.unique(np.asarray(alpha_grid, dtype=np.float64), equal_nan=False)
    if grid.size < 3:
        raise ValueError("alpha grid needs at least three samples")
    if not (grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise ValueError("alpha grid must lie within [0, 1]")
    return grid


def _brent_minimize(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Brent's bounded minimizer: ``(x, f(x))`` at a local minimum in [lo, hi].

    A step-for-step port of scipy's ``minimize_scalar(method="bounded")``
    (``_minimize_scalar_bounded``, 500 evaluations at most), so it returns
    the same point bit for bit: parabolic steps where the fit through the
    last three points is acceptable, golden-section steps otherwise.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _brent_root(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """Brent's root finder: a zero of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    A step-for-step port of scipy's ``brentq`` (its C ``brentq``, with
    rtol = 4 * eps and ``maxiter`` iterations), so it returns the same root
    bit for bit: inverse quadratic extrapolation or secant interpolation
    where the step is short enough, bisection otherwise, and never a step
    below ``delta = (xtol + rtol * |x|) / 2``. Raises ``FitError`` when the
    signs agree or the search does not converge.
    """
    rtol = 4.0 * sys.float_info.epsilon
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise FitError(f"no sign change between {a!r} and {b!r}")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            # xblk is the contrapoint: [xcur, xblk] keeps the sign change
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise FitError(f"no root in [{a!r}, {b!r}] after {maxiter} iterations")


def fit_alpha(
    model: BinnedModel,
    constraint: MstConstraint | None = None,
    alpha_grid: int | Sequence[float] = 201,
) -> FitResult:
    """Minimize the binned objective over the signal fraction.

    Without a constraint the objective is the pure binned likelihood
    (mode "baseline"); with one, the calibrated quadratic penalty is added
    (mode "augmented"). Returns the sampled Q curve, the minimum refined by
    ``_brent_minimize`` between the grid neighbours of the lowest sample,
    and the half-width of the Q_min + 1 interval, whose ends
    ``_brent_root`` finds to 1e-12; a flat objective (signal and background
    templates identical, no constraint) reports an infinite uncertainty.

    Raises ``FitError`` when the mixture probability vanishes in an
    occupied bin, when Q is not finite at some fraction (a NaN or infinite
    count or constraint value), or when a Q_min + 1 crossing does not
    converge in 100 root-finder iterations.
    """
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
        if not math.isfinite(q):
            raise FitError(f"the objective is not finite at alpha={alpha:g}")
        return q

    curve = np.array([q_of(a) for a in alphas])
    mode = "baseline" if constraint is None else "augmented"
    q_curve = np.column_stack([alphas, curve])

    i_min = int(np.argmin(curve))
    alpha_hat, q_min = float(alphas[i_min]), float(curve[i_min])
    spread = float(curve.max() - curve.min())
    if spread <= _FLAT_TOL * max(1.0, abs(q_min)):
        # unidentifiable: Q carries no information about the fraction
        return FitResult(alpha_hat, math.inf, q_curve, mode, q_min)

    lo_b = float(alphas[max(i_min - 1, 0)])
    hi_b = float(alphas[min(i_min + 1, alphas.size - 1)])
    x, q = _brent_minimize(q_of, lo_b, hi_b, xatol=1e-12)
    if q <= q_min:
        alpha_hat, q_min = x, q

    sigma = _interval_halfwidth(q_of, alphas, curve, alpha_hat, q_min)
    return FitResult(alpha_hat, sigma, q_curve, mode, q_min)


def _interval_halfwidth(q_of, alphas, curve, alpha_hat, q_min) -> float:
    """Half-width of the interval where Q <= Q_min + 1: each end, left first, is the
    root between ``alpha_hat`` and its side's nearest grid point above Q_min + 1, or
    the grid's end where that side has none; infinite where neither side has one."""
    target = q_min + 1.0
    left = alphas[(alphas < alpha_hat) & (curve > target)]
    right = alphas[(alphas > alpha_hat) & (curve > target)]
    if not (left.size or right.size):
        return math.inf
    lo, hi = float(alphas[0]), float(alphas[-1])
    if left.size:
        lo = _brent_root(lambda x: q_of(x) - target, float(left[-1]), alpha_hat, xtol=1e-12)
    if right.size:
        hi = _brent_root(lambda x: q_of(x) - target, alpha_hat, float(right[0]), xtol=1e-12)
    return 0.5 * (hi - lo)
