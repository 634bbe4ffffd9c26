"""Seeded point-cloud generators for the synthetic examples and demos.

All generators are deterministic functions of their seed: the PRNG is
NumPy's PCG64 behind ``numpy.random.Generator``, and independent
sub-streams (for mixture components, calibration trials, ...) are derived
with ``numpy.random.SeedSequence.spawn``. Same seed, same bits.

The one-dimensional samplers draw from three test densities on the
interval [0, 12]: flat, exponential exp(-x) (truncated to the interval,
which discards about 6e-6 of the mass), and sin^2(pi x / 8) whose
normalization constant over the interval is 1/6. Grids, discs, and strips
cover the two- and three-dimensional examples; every vertex position can
be perturbed by independent Gaussian noise so that all pairwise distances
are distinct and the minimal spanning tree is unique.

A :class:`GeneratorSpec` passes its ``params`` to its kind's generator
function as keyword arguments, so each default lives only in that
function's signature, and a name the signature does not take is refused
when the spec is built.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from .errors import DimensionMismatch
from .geometry import PointSet
from .io import config_int

INTERVAL_1D = (0.0, 12.0)
SIN2_NORMALIZATION = 1.0 / 6.0

KINDS_1D = ("uniform1d", "exponential1d", "sin2_1d")
LATTICE_KINDS = ("grid", "quadratic_grid")
KINDS = KINDS_1D + LATTICE_KINDS + ("disc", "strip", "disc3d")

_Z_KINDS = ("uniform", "exponential")

BACKGROUND_LABEL = "background"
SIGNAL_LABEL = "signal"


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The SeedSequence of ``seed``, refused with ``ValueError`` when negative."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded through a SeedSequence."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic sample.

    ``params`` are keyword arguments of the kind's generator function
    (grid shape and extents, disc center and radius, ...); one it omits
    takes that function's default, and one it does not take is refused.
    ``sigma`` is the standard deviation of the per-coordinate Gaussian
    perturbation. The 1-d kinds take neither.
    """

    kind: str
    count: int
    seed: int
    sigma: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", config_int("count", self.count))
        object.__setattr__(self, "seed", config_int("seed", self.seed))
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.sigma >= 0:  # NaN too
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.sigma and self.kind in KINDS_1D:
            raise ValueError(f"{self.kind} takes no sigma, got {self.sigma}")
        object.__setattr__(self, "params", dict(self.params))
        taken = _PARAMS.get(self.kind, {})
        unknown = sorted(set(self.params) - set(taken))
        if unknown:
            raise ValueError(f"{self.kind} takes no params {unknown}; its params: {list(taken)}")
        if self.kind in LATTICE_KINDS:  # cols and rows fix the size before any draw
            shape = {**taken, **self.params}
            _lattice_shape(shape["cols"], shape["rows"], self.count)
        if "center" in self.params:  # so is a disc's or strip's center
            _center(self.params["center"])

    @property
    def feature_names(self) -> tuple[str, ...]:
        """The features of the points :func:`generate` draws for this spec."""
        if self.kind in KINDS_1D:
            return ("x",)
        return ("x", "y", "z") if self.kind == "disc3d" else ("x", "y")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GeneratorSpec":
        return cls(**d)


# ---------------------------------------------------------------------------
# one-dimensional samplers

def _sin2_cdf(x: np.ndarray) -> np.ndarray:
    # integral of sin^2(pi t / 8) / 6 from 0 to x
    return (x / 2.0 - (2.0 / math.pi) * np.sin(math.pi * x / 4.0)) / 6.0


@functools.cache
def _sin2_inverse_table() -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(INTERVAL_1D[0], INTERVAL_1D[1], 8193)
    return _sin2_cdf(xs), xs


def _inverse_cdf(kind: str, u: np.ndarray) -> np.ndarray:
    """Values of the 1-d density ``kind`` on [0, 12] at uniform draws ``u``."""
    lo, hi = INTERVAL_1D
    if kind == "uniform1d":
        return lo + (hi - lo) * u
    if kind == "exponential1d":
        return -np.log1p(-u * (1.0 - math.exp(-(hi - lo)))) + lo
    cdf, xs = _sin2_inverse_table()
    return np.interp(u, cdf, xs)


def sample_1d(kind: str, count: int, seed: int) -> PointSet:
    """Draw i.i.d. values from one of the three 1-d test densities on [0, 12].

    The flat and exponential cases use the closed-form inverse CDF (the
    exponential one renormalized over the interval); the sin^2 case inverts
    a densely tabulated CDF, whose interpolation error is far below any
    statistical resolution at realistic sample sizes.
    """
    if kind not in KINDS_1D:
        raise ValueError(f"unknown 1-d kind {kind!r}; expected one of {KINDS_1D}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    x = _inverse_cdf(kind, rng_from_seed(seed).random(count))
    return PointSet(x.reshape(-1, 1), feature_names=("x",))


# ---------------------------------------------------------------------------
# lattices

def _lattice_axis(n: int, extent: float) -> np.ndarray:
    if n == 1:
        return np.zeros(1)
    return np.linspace(0.0, extent, n)


def gen_grid(
    cols: int = 20,
    rows: int = 40,
    x_extent: float = 20.0,
    y_extent: float = 40.0,
    sigma: float = 0.0,
    seed: int = 0,
    count: int | None = None,
) -> PointSet:
    """cols x rows lattice spanning [0, x_extent] x [0, y_extent], perturbed.

    Every coordinate receives independent Gaussian noise of standard
    deviation ``sigma`` (zero noise reproduces the exact lattice). A
    ``count``, where given, must equal cols * rows.
    """
    return _lattice(cols, rows, x_extent, y_extent, sigma, seed, count, quadratic=False)


def gen_quadratic_grid(
    cols: int = 20,
    rows: int = 40,
    x_extent: float = 20.0,
    y_extent: float = 40.0,
    sigma: float = 0.0,
    seed: int = 0,
    count: int | None = None,
) -> PointSet:
    """Grid whose column positions grow quadratically across the x extent.

    Column j sits at x_extent * (j / (cols - 1))^2, so vertices crowd at
    low x and thin out toward high x; rows stay uniform. Otherwise as
    :func:`gen_grid`.
    """
    return _lattice(cols, rows, x_extent, y_extent, sigma, seed, count, quadratic=True)


def _lattice_shape(cols, rows, count) -> tuple[int, int]:
    cols, rows = config_int("cols", cols), config_int("rows", rows)
    if cols < 1 or rows < 1:
        raise ValueError("grid must have at least one column and one row")
    if count is not None and count != cols * rows:
        raise ValueError(f"grid count must equal cols*rows ({cols * rows}), got {count}")
    return cols, rows


def _lattice(cols, rows, x_extent, y_extent, sigma, seed, count, quadratic: bool) -> PointSet:
    cols, rows = _lattice_shape(cols, rows, count)
    if quadratic and cols > 1:
        xs = x_extent * (np.arange(cols, dtype=np.float64) / (cols - 1)) ** 2
    else:
        xs = _lattice_axis(cols, x_extent)
    gx, gy = np.meshgrid(xs, _lattice_axis(rows, y_extent))
    coords = np.column_stack([gx.ravel(), gy.ravel()])
    coords = coords + rng_from_seed(seed).normal(0.0, sigma, size=coords.shape)
    return PointSet(coords, feature_names=("x", "y"))


# ---------------------------------------------------------------------------
# discs and strips

def _center(center) -> tuple[float, float]:
    """``center`` as two floats, refused with ``ValueError`` unless two finite numbers."""
    try:
        x, y = center
    except (TypeError, ValueError):  # a scalar, or a sequence of another length
        x = y = None
    if not all(isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c)
               for c in (x, y)):
        raise ValueError(f"center must be two finite numbers, got {center!r}")
    return float(x), float(y)


def _disc_xy(count: int, center: tuple[float, float], radius: float, rng) -> np.ndarray:
    u = rng.random((count, 2))
    r = radius * np.sqrt(u[:, 0])
    theta = 2.0 * math.pi * u[:, 1]
    return np.column_stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def gen_disc(
    count: int,
    center: tuple[float, float] = (0.0, 0.0),
    radius: float = 20.0,
    sigma: float = 0.0,
    seed: int = 0,
) -> PointSet:
    """Uniform-over-area disc sample (radius proportional to sqrt(u))."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = rng_from_seed(seed)
    coords = _disc_xy(count, _center(center), radius, rng)
    coords = coords + rng.normal(0.0, sigma, size=coords.shape)
    return PointSet(coords, feature_names=("x", "y"))


def gen_strip(
    count: int,
    center: tuple[float, float] = (0.0, 0.0),
    width: float = 100.0,
    height: float = 4.0,
    sigma: float = 0.0,
    seed: int = 0,
) -> PointSet:
    """Uniform sample over a width x height rectangle centered at ``center``."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if width <= 0 or height <= 0:
        raise ValueError("strip width and height must be positive")
    center = _center(center)
    rng = rng_from_seed(seed)
    u = rng.random((count, 2))
    coords = np.column_stack(
        [
            center[0] + (u[:, 0] - 0.5) * width,
            center[1] + (u[:, 1] - 0.5) * height,
        ]
    )
    coords = coords + rng.normal(0.0, sigma, size=coords.shape)
    return PointSet(coords, feature_names=("x", "y"))


def gen_disc3d(
    count: int,
    center: tuple[float, float] = (0.0, 0.0),
    radius: float = 20.0,
    sigma: float = 0.0,
    z_kind: str = "uniform",
    seed: int = 0,
) -> PointSet:
    """Disc sample with a third coordinate drawn from a named distribution.

    The xy plane is a perturbed uniform disc exactly as :func:`gen_disc`;
    z is drawn from the flat or the truncated exponential density on
    [0, 12] and is not perturbed further.
    """
    if z_kind not in _Z_KINDS:
        raise ValueError(f"z_kind must be one of {_Z_KINDS}, got {z_kind!r}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = rng_from_seed(seed)
    xy = _disc_xy(count, _center(center), radius, rng)
    xy = xy + rng.normal(0.0, sigma, size=xy.shape)
    z = _inverse_cdf(f"{z_kind}1d", rng.random(count))
    return PointSet(np.column_stack([xy, z]), feature_names=("x", "y", "z"))


# ---------------------------------------------------------------------------
# two-component mixtures

def check_component(kind: str) -> None:
    """Refuse a kind that cannot be a mixture component."""
    if kind in LATTICE_KINDS:
        raise ValueError(
            f"a {kind} cannot be a mixture component: cols and rows fix its "
            "size, which must follow the binomial draw"
        )


def check_mixture(
    count: int, alpha_true: float, background_spec: GeneratorSpec, signal_spec: GeneratorSpec
) -> None:
    """Refuse, before any draw, a mixture :func:`gen_two_component` cannot make."""
    if not 0.0 <= alpha_true <= 1.0:
        raise ValueError(f"alpha_true must lie in [0, 1], got {alpha_true}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    for spec in (background_spec, signal_spec):
        check_component(spec.kind)
    dims = len(background_spec.feature_names), len(signal_spec.feature_names)
    if dims[0] != dims[1]:
        raise DimensionMismatch(f"background has {dims[0]} features, signal {dims[1]}")


def gen_two_component(
    count: int,
    alpha_true: float,
    background_spec: GeneratorSpec,
    signal_spec: GeneratorSpec,
    seed: int,
) -> PointSet:
    """Labeled mixture of two generator specs with expected signal fraction.

    Each point is signal with probability ``alpha_true`` (binomial split).
    Component streams are derived from the mixture seed, so the seeds
    stored inside the two specs are ignored; the mixture is a deterministic
    function of ``seed`` alone.
    """
    check_mixture(count, alpha_true, background_spec, signal_spec)
    flag_seq, bg_seq, sig_seq = _seed_sequence(seed).spawn(3)
    flags = np.random.Generator(np.random.PCG64(flag_seq)).random(count) < alpha_true
    n_sig = int(flags.sum())
    n_bg = count - n_sig

    def component(spec: GeneratorSpec, n: int, seq) -> np.ndarray:
        child_seed = int(seq.generate_state(1)[0])
        return generate(replace(spec, count=n, seed=child_seed)).coords

    names = background_spec.feature_names
    coords = np.empty((count, len(names)))
    if n_bg:
        coords[~flags] = component(background_spec, n_bg, bg_seq)
    if n_sig:
        coords[flags] = component(signal_spec, n_sig, sig_seq)
    labels = [SIGNAL_LABEL if f else BACKGROUND_LABEL for f in flags.tolist()]
    return PointSet(coords, labels=labels, feature_names=names)


# ---------------------------------------------------------------------------
# dispatch and presets

# the generators of the kinds that take params; a spec's params are their
# keyword arguments other than the spec's own count, sigma and seed, here
# with their defaults
_GENERATORS = {
    "grid": gen_grid,
    "quadratic_grid": gen_quadratic_grid,
    "disc": gen_disc,
    "strip": gen_strip,
    "disc3d": gen_disc3d,
}
_PARAMS = {
    kind: {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if name not in ("count", "sigma", "seed")
    }
    for kind, fn in _GENERATORS.items()
}


def generate(spec: GeneratorSpec) -> PointSet:
    """Materialize a GeneratorSpec: its kind's generator, called with its params."""
    if spec.kind in KINDS_1D:
        return sample_1d(spec.kind, spec.count, spec.seed)
    return _GENERATORS[spec.kind](count=spec.count, sigma=spec.sigma, seed=spec.seed, **spec.params)


# Named presets for the CLI and the shipped demos. Grid presets put 800
# vertices on a 20-column x 40-row lattice; the sparse flavour spreads the
# columns over a 20-wide extent while the dense one packs them into a
# 3-wide extent. Disc radius 20 and the 4 x 100 strip are fixed package
# constants for the synthetic geometry examples.
def _preset_table(seed: int, count: int | None) -> dict[str, GeneratorSpec]:
    def c(default: int) -> int:
        return default if count is None else count

    grid_params = {"cols": 20, "rows": 40, "x_extent": 20.0, "y_extent": 40.0}
    dense_params = {"cols": 20, "rows": 40, "x_extent": 3.0, "y_extent": 40.0}
    return {
        "uniform-1d": GeneratorSpec("uniform1d", c(100_000), seed),
        "exp-1d": GeneratorSpec("exponential1d", c(100_000), seed),
        "sin2-1d": GeneratorSpec("sin2_1d", c(100_000), seed),
        "sparse-grid": GeneratorSpec("grid", 800, seed, 0.2, grid_params),
        "dense-grid": GeneratorSpec("grid", 800, seed, 0.2, dense_params),
        "quadratic-grid": GeneratorSpec("quadratic_grid", 800, seed, 0.2, grid_params),
        "disc": GeneratorSpec("disc", c(4000), seed, 0.2, {"center": (0.0, 0.0), "radius": 20.0}),
        "strip": GeneratorSpec(
            "strip", c(4000), seed, 0.2, {"center": (0.0, 0.0), "width": 100.0, "height": 4.0}
        ),
        "disc3d-uniform": GeneratorSpec(
            "disc3d", c(4000), seed, 0.2, {"radius": 20.0, "z_kind": "uniform"}
        ),
        "disc3d-exp": GeneratorSpec(
            "disc3d", c(4000), seed, 0.2, {"radius": 20.0, "z_kind": "exponential"}
        ),
        "demo-background": GeneratorSpec(
            "disc", c(12000), seed, 0.2, {"center": (0.0, 0.0), "radius": 20.0}
        ),
        "demo-signal": GeneratorSpec(
            "disc", c(12000), seed, 0.2, {"center": (10.0, 4.0), "radius": 8.0}
        ),
    }


PRESET_NAMES = tuple(sorted(_preset_table(0, None)))


def preset_spec(name: str, seed: int, count: int | None = None) -> GeneratorSpec:
    """Look up a named preset, optionally overriding its sample count.

    The grid presets have a fixed size and take no count.
    """
    table = _preset_table(seed, count)
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    spec = table[name]
    if count is not None and spec.kind in LATTICE_KINDS:
        raise ValueError(f"preset {name!r} always has {spec.count} events; it takes no count")
    return spec
