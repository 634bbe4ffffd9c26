"""Point sets, feature rescaling and region weights.

A :class:`PointSet` is the substrate for everything else in the package:
each point is an event in an n-dimensional feature space, carrying a
non-negative weight (default 1) and an optional process label. Coordinates
are double precision. Distances are plain Euclidean, so features with very
different units or ranges should be rescaled before building trees; both
standard rescalings are provided and the default is to leave data untouched.
A :class:`RegionWeight` multiplies each point's weight by an axis-aligned
box's inside or outside factor; coordinates, and so every tree, stay the same.

Like every value type in the package, a point set is a frozen dataclass:
its arrays are read-only copies, so it is safe to share across threads,
and ``dataclasses.replace`` makes a checked copy with some fields changed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateStatistic

RESCALE_MODES = ("none", "unit-range", "unit-variance")


@dataclass(frozen=True, eq=False)
class PointSet:
    """An immutable set of m points sharing one dimension.

    Coordinates are held as a read-only (m, n) float64 array. A 1-d input
    array is interpreted as m points in one dimension. Weights default to 1;
    labels and feature names are kept as tuples. Equality is identity, as
    arrays have no single truth value.
    """

    coords: np.ndarray
    weights: np.ndarray | None = None
    labels: Sequence[str | None] | None = None
    feature_names: Sequence[str] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=np.float64, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"coords must be a 1-d or 2-d array, got ndim={arr.ndim}")
        m, n = arr.shape
        if m < 1:
            raise ValueError("a PointSet must contain at least one point")
        if n < 1:
            raise ValueError("points must have at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        if not np.isfinite(squared_span(arr)):
            raise ValueError("coordinates lie too far apart: squared distances overflow")

        if self.weights is None:
            w = np.ones(m, dtype=np.float64)
        else:
            w = np.array(self.weights, dtype=np.float64, copy=True)
            if w.shape != (m,):
                raise ValueError(f"weights must have shape ({m},), got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be non-negative")

        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and len(labels) != m:
            raise ValueError(f"labels must have length {m}, got {len(labels)}")
        names = None if self.feature_names is None else tuple(map(str, self.feature_names))
        if names is not None and len(names) != n:
            raise ValueError(f"feature_names must have length {n}, got {len(names)}")

        arr.setflags(write=False)
        w.setflags(write=False)
        for name, value in (("coords", arr), ("weights", w), ("labels", labels),
                            ("feature_names", names)):
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def feature_index(self, feature: int | str) -> int:
        """Resolve a feature given by position or by name to a column index."""
        return feature_index(self.feature_names, self.dimension, feature)

    def __repr__(self) -> str:
        return f"PointSet(m={len(self)}, dimension={self.dimension})"


def squared_span(*coords: np.ndarray) -> float:
    """Sum over features of (max - min)² over all rows: a bound on squared distances."""
    with np.errstate(over="ignore"):
        ends = np.vstack([f(c, axis=0) for c in coords for f in (np.min, np.max)])
        return float(np.sum(np.square(np.ptp(ends, axis=0))))


def feature_index(names: Sequence[str] | None, dimension: int, feature: int | str) -> int:
    """The column of ``feature``, a position or a name, among ``dimension`` columns ``names``."""
    if isinstance(feature, int):
        if not 0 <= feature < dimension:
            raise ValueError(f"feature index {feature} out of range")
        return feature
    if names is None:
        raise ValueError(f"point set has no feature names, cannot resolve {feature!r}")
    try:
        return tuple(names).index(feature)
    except ValueError:
        raise ValueError(f"unknown feature {feature!r}; available: {tuple(names)}") from None


def rescaled(coords: np.ndarray, mode: str) -> np.ndarray:
    """``coords``, one feature per column, rescaled as :func:`rescale_features` describes."""
    if mode not in RESCALE_MODES:
        raise ValueError(f"unknown rescale mode {mode!r}; expected one of {RESCALE_MODES}")
    if mode == "none":
        return coords
    with np.errstate(over="ignore"):  # a spread beyond the float range is refused below
        if mode == "unit-range":
            offset = coords.min(axis=0)
            scale = coords.max(axis=0) - offset
        else:
            if len(coords) < 2:
                raise ValueError("unit-variance rescaling requires at least two points")
            offset = coords.mean(axis=0)
            scale = coords.std(axis=0)
    if not np.isfinite(offset).all() or not np.isfinite(scale).all():
        raise ValueError(f"features spread too far for {mode} rescaling: it overflows")
    scale = np.where(scale > 0, scale, 1.0)
    return (coords - offset) / scale


def rescale_features(ps: PointSet, mode: str = "none") -> PointSet:
    """Rescale every feature of a point set; weights and labels are unchanged.

    ``unit-range`` maps each feature to [0, 1] via (x - min) / (max - min);
    ``unit-variance`` maps to (x - mean) / stddev. Constant features map to 0
    in either mode; a ``ValueError`` refuses a range or variance that overflows.
    """
    coords = rescaled(ps.coords, mode)
    return ps if coords is ps.coords else replace(ps, coords=coords)


@dataclass(frozen=True, eq=False)
class RegionWeight:
    """Axis-aligned box with inside/outside weight factors.

    ``box`` maps a feature (index or name) to finite (lo, hi) bounds; either
    bound may be None for an open end. A point is inside when every constrained
    coordinate lies strictly between its bounds, matching the usual
    strict-inequality convention for suppression rectangles. ``apply_to``
    names the run-config inputs the weights apply to; empty means every one.
    Equality is identity, so the hash need not hash the ``box`` dict.
    """

    box: Mapping[int | str, tuple[float | None, float | None]]
    inside_weight: float
    outside_weight: float
    apply_to: Sequence[str] = ()

    def __post_init__(self) -> None:
        if not all(0 <= w < np.inf for w in (self.inside_weight, self.outside_weight)):
            raise ValueError(
                f"region weights must be finite and non-negative, got inside "
                f"{self.inside_weight!r} and outside {self.outside_weight!r}"
            )
        if isinstance(self.apply_to, str):
            raise ValueError(f"apply_to must be a list of input names, got {self.apply_to!r}")
        object.__setattr__(self, "box", dict(self.box))
        for feature, bounds in self.box.items():
            # written so that a NaN bound fails it
            if not all(b is None or -np.inf < b < np.inf for b in bounds):
                raise ValueError(f"box bounds must be finite or null, got {list(bounds)} "
                                 f"for feature {feature!r}")
        object.__setattr__(self, "apply_to", tuple(self.apply_to))

    @classmethod
    def from_dict(cls, section: Any) -> "RegionWeight":
        """A run config's ``region_weights`` section; a feature spelt in digits is an index."""
        keys = tuple(f.name for f in fields(cls))
        try:
            unknown = sorted(set(section) - set(keys))
            if unknown or "box" not in section:
                raise ConfigError(
                    f"region_weights takes a box and optionally {keys[1:]}, got {sorted(section)}"
                )
            box = {}
            for feature, (lo, hi) in section["box"].items():
                key: int | str = int(feature) if str(feature).lstrip("-").isdigit() else feature
                box[key] = tuple(None if b is None else float(b) for b in (lo, hi))
            inside, outside = section.get("inside_weight", 0.0), section.get("outside_weight", 1.0)
            return cls(box, float(inside), float(outside), section.get("apply_to", ()))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"region_weights: {exc}") from exc

    def factors(self, coords: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
        """Each row's factor: ``inside_weight`` inside the box, else ``outside_weight``;
        ``names`` are the feature names of the columns of ``coords``."""
        inside = np.ones(len(coords), dtype=bool)
        for feature, (lo, hi) in self.box.items():
            col = coords[:, feature_index(names, coords.shape[1], feature)]
            if lo is not None:
                inside &= col > lo
            if hi is not None:
                inside &= col < hi
        return np.where(inside, self.inside_weight, self.outside_weight)

    def weigh(self, coords: np.ndarray, weights: np.ndarray,
              names: Sequence[str] | None = None) -> np.ndarray:
        """``weights`` times each row's factor; a product that overflows raises
        ``DegenerateStatistic``."""
        with np.errstate(over="ignore"):
            weighted = weights * self.factors(coords, names)
        if not np.isfinite(weighted).all():
            raise DegenerateStatistic(
                "event weights overflow: a weight times its region weight factor is not finite")
        return weighted


def apply_region_weights(ps: PointSet, rw: RegionWeight) -> PointSet:
    """Multiply each point's weight by the inside or outside factor.

    Coordinates are untouched, so trees built from the result have exactly
    the same edge set as before; only weights differ. ``rw.apply_to`` is ignored.
    A product that overflows raises ``DegenerateStatistic``.
    """
    return replace(ps, weights=rw.weigh(ps.coords, ps.weights, ps.feature_names))
