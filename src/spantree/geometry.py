"""Point sets and feature rescaling.

A :class:`PointSet` is the substrate for everything else in the package:
each point is an event in an n-dimensional feature space, carrying a
non-negative weight (default 1) and an optional process label. Coordinates
are double precision. Distances are plain Euclidean, so features with very
different units or ranges should be rescaled before building trees; both
standard rescalings are provided and the default is to leave data untouched.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

RESCALE_MODES = ("none", "unit-range", "unit-variance")


class PointSet:
    """An immutable set of m points sharing one dimension.

    Coordinates are held as a read-only (m, n) float64 array. A 1-d input
    array is interpreted as m points in one dimension.
    """

    def __init__(
        self,
        coords,
        weights=None,
        labels: Sequence[str | None] | None = None,
        feature_names: Sequence[str] | None = None,
    ) -> None:
        arr = np.array(coords, dtype=np.float64, copy=True)
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

        if weights is None:
            w = np.ones(m, dtype=np.float64)
        else:
            w = np.array(weights, dtype=np.float64, copy=True)
            if w.shape != (m,):
                raise ValueError(f"weights must have shape ({m},), got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be non-negative")

        if labels is not None:
            labels = tuple(labels)
            if len(labels) != m:
                raise ValueError(f"labels must have length {m}, got {len(labels)}")
        if feature_names is not None:
            feature_names = tuple(str(f) for f in feature_names)
            if len(feature_names) != n:
                raise ValueError(
                    f"feature_names must have length {n}, got {len(feature_names)}"
                )

        arr.setflags(write=False)
        w.setflags(write=False)
        self._coords = arr
        self._weights = w
        self._labels = labels
        self._feature_names = feature_names

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def labels(self) -> tuple[str | None, ...] | None:
        return self._labels

    @property
    def feature_names(self) -> tuple[str, ...] | None:
        return self._feature_names

    @property
    def dimension(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def feature_index(self, feature: int | str) -> int:
        """Resolve a feature given by position or by name to a column index."""
        if isinstance(feature, int):
            if not 0 <= feature < self.dimension:
                raise ValueError(f"feature index {feature} out of range")
            return feature
        if self._feature_names is None:
            raise ValueError(f"point set has no feature names, cannot resolve {feature!r}")
        try:
            return self._feature_names.index(feature)
        except ValueError:
            raise ValueError(
                f"unknown feature {feature!r}; available: {self._feature_names}"
            ) from None

    def with_weights(self, weights) -> "PointSet":
        """Same coordinates and labels, new per-point weights."""
        return PointSet(self._coords, weights, self._labels, self._feature_names)

    def __repr__(self) -> str:
        return f"PointSet(m={len(self)}, dimension={self.dimension})"


def rescale_features(ps: PointSet, mode: str = "none") -> PointSet:
    """Rescale every feature of a point set; weights and labels are unchanged.

    ``unit-range`` maps each feature to [0, 1] via (x - min) / (max - min);
    ``unit-variance`` maps to (x - mean) / stddev. Constant features map
    to 0 in either mode.
    """
    if mode not in RESCALE_MODES:
        raise ValueError(f"unknown rescale mode {mode!r}; expected one of {RESCALE_MODES}")
    if mode == "none":
        return ps

    coords = ps.coords
    if mode == "unit-range":
        offset = coords.min(axis=0)
        scale = coords.max(axis=0) - offset
    else:
        if len(ps) < 2:
            raise ValueError("unit-variance rescaling requires at least two points")
        offset = coords.mean(axis=0)
        scale = coords.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return PointSet((coords - offset) / scale, ps.weights, ps.labels, ps.feature_names)
