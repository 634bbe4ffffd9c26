"""File formats: event tables, tree files, histogram CSVs, run configs.

Events travel as comma-delimited text with a header row naming the feature
columns; optional ``weight`` and ``label`` columns carry per-event weights
and process tags. Floats are printed with shortest-round-trip precision,
so a write/read cycle preserves every value bit for bit.

Every file this package writes starts with a one-line provenance comment
carrying the tool version, the hash of the effective configuration that
produced it, and the master seed, so identical configurations can be
recognized from their outputs alone. Every file is written through
:func:`write_text_atomic`, so it is never left half-written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from io import StringIO
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, EventFileError
from .generators import GeneratorSpec
from .geometry import PointSet
from .mst import Tree
from .stats import Histogram

WEIGHT_COLUMN = "weight"
LABEL_COLUMN = "label"

_RESERVED = (WEIGHT_COLUMN, LABEL_COLUMN)


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable short hash of a configuration mapping."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def file_fingerprint(path: str | Path) -> str:
    """Short content hash of an input file.

    Input files enter the effective configuration by content, not by path,
    so moving a pipeline to another directory changes nothing.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise EventFileError(f"{path}: cannot read input: {exc}") from exc
    return hashlib.sha256(data).hexdigest()[:12]


def provenance_line(cfg_hash: str, seed: int | None = None) -> str:
    seed_part = "-" if seed is None else str(seed)
    return f"# spantree {__version__} config={cfg_hash} seed={seed_part}"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step.

    The text goes to a new file beside ``path`` that is then renamed over
    it, so ``path`` never holds part of the text: a failed or interrupted
    write leaves the old file, if any, as it was. The file gets the mode
    of a newly created one, even where it replaces another.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    # created like open(path, "w") would create path: mode 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# event files

def write_events(ps: PointSet, path: str | Path, comment: str | None = None) -> None:
    """Write a point set as a delimited event table.

    The weight column is emitted only when some weight differs from 1, the
    label column only when labels are present. A field holding a comma or a
    quote is quoted, so such a label reads back unchanged.
    """
    names = ps.feature_names or tuple(f"x{i}" for i in range(ps.dimension))
    with_weights = bool(np.any(ps.weights != 1.0))
    with_labels = ps.labels is not None
    header = list(names)
    if with_weights:
        header.append(WEIGHT_COLUMN)
    if with_labels:
        header.append(LABEL_COLUMN)

    buf = StringIO()
    if comment:
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i in range(len(ps)):
        row = [_fmt(v) for v in ps.coords[i]]
        if with_weights:
            row.append(_fmt(ps.weights[i]))
        if with_labels:
            row.append(ps.labels[i] or "")
        writer.writerow(row)
    write_text_atomic(path, buf.getvalue())


@dataclass(frozen=True)
class ColumnFilter:
    """Keep only rows whose feature lies within [lo, hi] (either open)."""

    feature: int | str
    lo: float | None = None
    hi: float | None = None


def _csv_records(lines: Iterable[str]):
    """Yield (first line number, cells) for each csv record in ``lines``.

    Blank lines and lines starting with ``#`` are skipped between records; a
    quoted field keeps every line it spans, blank or not.
    """
    start = 0

    def record_lines():
        nonlocal start
        for lineno, line in enumerate(lines, start=1):
            if not start:
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                start = lineno
            yield line

    for cells in csv.reader(record_lines()):
        yield start, cells
        start = 0


def read_events(path: str | Path, filters: Sequence[ColumnFilter] = ()) -> PointSet:
    """Parse an event table into a PointSet.

    Raises :class:`EventFileError` with the offending line number for rows
    with the wrong column count or non-finite numbers.
    """
    path = Path(path)
    try:
        # newline="" hands line endings inside quoted labels to the csv reader as written
        with open(path, newline="") as fh:
            records = list(_csv_records(fh))
    except OSError as exc:
        raise EventFileError(f"{path}: cannot read event file: {exc}") from exc
    except csv.Error as exc:
        raise EventFileError(f"{path}: {exc}") from exc
    if not records:
        raise EventFileError(f"{path}: no header row found")

    header = [h.strip() for h in records[0][1]]
    feature_cols = [i for i, h in enumerate(header) if h not in _RESERVED]
    if not feature_cols:
        raise EventFileError(f"{path}: header declares no feature columns")
    weight_col = header.index(WEIGHT_COLUMN) if WEIGHT_COLUMN in header else None
    label_col = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
    names = tuple(header[i] for i in feature_cols)

    coords: list[list[float]] = []
    weights: list[float] = []
    labels: list[str | None] = []
    for lineno, cells in records[1:]:
        if len(cells) != len(header):
            raise EventFileError(
                f"{path}: line {lineno}: expected {len(header)} fields, found {len(cells)}"
            )
        try:
            values = [float(cells[i]) for i in feature_cols]
            w = float(cells[weight_col]) if weight_col is not None else 1.0
        except ValueError as exc:
            raise EventFileError(f"{path}: line {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values) or not math.isfinite(w):
            raise EventFileError(f"{path}: line {lineno}: non-finite value")
        coords.append(values)
        weights.append(w)
        labels.append(cells[label_col].strip() or None if label_col is not None else None)

    if not coords:
        raise EventFileError(f"{path}: event file contains no rows")

    ps = PointSet(
        np.asarray(coords),
        np.asarray(weights),
        labels if any(l is not None for l in labels) else None,
        names,
    )
    for f in filters:
        col = ps.coords[:, ps.feature_index(f.feature)]
        keep = np.ones(len(ps), dtype=bool)
        if f.lo is not None:
            keep &= col >= f.lo
        if f.hi is not None:
            keep &= col <= f.hi
        if not keep.any():
            raise EventFileError(f"{path}: filter on {f.feature!r} removed every event")
        if not keep.all():
            ps = PointSet(
                ps.coords[keep],
                ps.weights[keep],
                [ps.labels[i] for i in np.flatnonzero(keep)] if ps.labels else None,
                ps.feature_names,
            )
    return ps


# ---------------------------------------------------------------------------
# tree files

def write_tree_csv(tree: Tree, path: str | Path, comment: str | None = None) -> None:
    """Write tree edges as ``u,v,length,weight`` in canonical order."""
    lines = []
    if comment:
        lines.append(comment)
    lines.append("u,v,length,weight")
    for u, v, l, w in zip(
        tree.edge_u.tolist(), tree.edge_v.tolist(), tree.lengths.tolist(), tree.edge_weights.tolist()
    ):
        lines.append(f"{u},{v},{_fmt(l)},{_fmt(w)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_tree_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a tree file back as (u, v, length, weight) arrays."""
    path = Path(path)
    us, vs, lengths, weights = [], [], [], []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise EventFileError(f"{path}: cannot read tree file: {exc}") from exc
    seen_header = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not seen_header:
            seen_header = True
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise EventFileError(f"{path}: line {lineno}: expected 4 fields")
        try:
            us.append(int(cells[0]))
            vs.append(int(cells[1]))
            lengths.append(float(cells[2]))
            weights.append(float(cells[3]))
        except ValueError as exc:
            raise EventFileError(f"{path}: line {lineno}: {exc}") from exc
    return (
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(lengths),
        np.asarray(weights),
    )


# ---------------------------------------------------------------------------
# histogram files

def write_histogram_csv(h: Histogram, path: str | Path, comment: str | None = None) -> None:
    """Write ``bin_lo,bin_hi,content`` rows plus overflow/underflow trailers."""
    lines = []
    if comment:
        lines.append(comment)
    lines.append(f"# folds_overflow={'true' if h.folds_overflow else 'false'}")
    lines.append("bin_lo,bin_hi,content")
    edges = h.edges
    for i in range(h.nbins):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(h.contents[i])}")
    lines.append(f"overflow,,{_fmt(h.overflow)}")
    lines.append(f"underflow,,{_fmt(h.underflow)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_histogram_csv(path: str | Path) -> Histogram:
    path = Path(path)
    folds = True
    rows: list[tuple[float, float, float]] = []
    overflow = underflow = 0.0
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise EventFileError(f"{path}: cannot read histogram file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if "folds_overflow=" in stripped:
                folds = stripped.split("folds_overflow=")[1].strip() == "true"
            continue
        if stripped.startswith("bin_lo"):
            continue
        cells = stripped.split(",")
        if cells[0] in ("overflow", "underflow"):
            try:
                value = float(cells[-1])
            except ValueError as exc:
                raise EventFileError(f"{path}: line {lineno}: {exc}") from exc
            if cells[0] == "overflow":
                overflow = value
            else:
                underflow = value
            continue
        if len(cells) != 3:
            raise EventFileError(f"{path}: line {lineno}: expected 3 fields")
        try:
            rows.append((float(cells[0]), float(cells[1]), float(cells[2])))
        except ValueError as exc:
            raise EventFileError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise EventFileError(f"{path}: histogram file contains no bins")
    lo = rows[0][0]
    hi = rows[-1][1]
    contents = np.array([r[2] for r in rows])
    return Histogram(lo, hi, len(rows), contents, underflow, overflow, folds)


def _finite_or_null(obj: Any) -> Any:
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Mapping):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(payload: Mapping[str, Any], path: str | Path) -> None:
    """Write indented, key-sorted JSON; a non-finite float is written as null."""
    text = json.dumps(
        _finite_or_null(payload), indent=2, sort_keys=True, default=str, allow_nan=False
    )
    write_text_atomic(path, text + "\n")


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class InputSpec:
    """One named pipeline input: a file, a generator, or a labeled mixture."""

    name: str
    file: str | None = None
    generator: GeneratorSpec | None = None
    two_component: dict[str, Any] | None = None
    filters: tuple[ColumnFilter, ...] = ()

    def __post_init__(self) -> None:
        provided = sum(x is not None for x in (self.file, self.generator, self.two_component))
        if provided != 1:
            raise ConfigError(
                f"input {self.name!r} must declare exactly one of file/generator/two_component"
            )


@dataclass(frozen=True)
class FitSettings:
    """Fit section of a run configuration."""

    background: str
    signal: str
    observed: str
    binning: dict[str, Any]
    calibration_alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    calibration_trials: int = 4
    calibration_count: int | None = None
    alpha_grid: int = 201
    mode: str = "both"

    def __post_init__(self) -> None:
        if self.mode not in ("baseline", "augmented", "both"):
            raise ConfigError(f"fit mode must be baseline/augmented/both, got {self.mode!r}")


ALL_STATISTICS = ("edge_length", "log_norm_length", "degree", "log_branch_length")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a reproducible pipeline run."""

    seed: int
    inputs: dict[str, InputSpec]
    output_dir: str | None = None
    rescale: str = "none"
    region_weights: dict[str, Any] | None = None
    statistics: tuple[str, ...] = ALL_STATISTICS
    fit: FitSettings | None = None
    histogram_specs: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rescale != "none":
            raise ConfigError(
                f"run configs support only rescale 'none', got {self.rescale!r}; "
                "rescale event files with the --rescale flag of build, stats or compare"
            )
        unknown = set(self.statistics) - set(ALL_STATISTICS)
        if unknown:
            raise ConfigError(f"unknown statistics {sorted(unknown)}; known: {ALL_STATISTICS}")
        if self.fit is not None:
            for role in (self.fit.background, self.fit.signal, self.fit.observed):
                if role not in self.inputs:
                    raise ConfigError(f"fit references undeclared input {role!r}")

    def to_dict(self) -> dict[str, Any]:
        inputs = {}
        for name, spec in self.inputs.items():
            entry: dict[str, Any] = {}
            if spec.file is not None:
                entry["file"] = spec.file
            if spec.generator is not None:
                entry["generator"] = spec.generator.to_dict()
            if spec.two_component is not None:
                entry["two_component"] = spec.two_component
            if spec.filters:
                entry["filters"] = [
                    {"feature": f.feature, "lo": f.lo, "hi": f.hi} for f in spec.filters
                ]
            inputs[name] = entry
        out: dict[str, Any] = {
            "seed": self.seed,
            "inputs": inputs,
            "rescale": self.rescale,
        }
        if self.statistics != ALL_STATISTICS:
            out["statistics"] = list(self.statistics)
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        if self.region_weights is not None:
            out["region_weights"] = self.region_weights
        if self.fit is not None:
            out["fit"] = {
                "background": self.fit.background,
                "signal": self.fit.signal,
                "observed": self.fit.observed,
                "binning": self.fit.binning,
                "calibration_alphas": list(self.fit.calibration_alphas),
                "calibration_trials": self.fit.calibration_trials,
                "calibration_count": self.fit.calibration_count,
                "alpha_grid": self.fit.alpha_grid,
                "mode": self.fit.mode,
            }
        if self.histogram_specs:
            out["histogram_specs"] = self.histogram_specs
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunConfig":
        if not isinstance(d, Mapping):
            raise ConfigError("a run configuration must be a JSON object")
        # "config" is the hash that effective_config.json carries next to the
        # settings; it is recomputed on every run, so an echoed config loads
        known = {f.name for f in fields(cls)} | {"config"}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown run configuration keys {unknown}; known: {sorted(known)}")
        try:
            raw_inputs = d["inputs"]
            seed = d.get("seed")
            inputs: dict[str, InputSpec] = {}
            uses_generator = False
            for name, entry in raw_inputs.items():
                gen = entry.get("generator")
                two = entry.get("two_component")
                if gen is not None or two is not None:
                    uses_generator = True
                filters = tuple(
                    ColumnFilter(f["feature"], f.get("lo"), f.get("hi"))
                    for f in entry.get("filters", ())
                )
                inputs[name] = InputSpec(
                    name=name,
                    file=entry.get("file"),
                    generator=GeneratorSpec.from_dict(gen) if gen is not None else None,
                    two_component=two,
                    filters=filters,
                )
            if uses_generator and seed is None:
                raise ConfigError("a seed is required whenever any input is generated")
            fit = None
            if "fit" in d:
                f = d["fit"]
                fit = FitSettings(
                    background=f["background"],
                    signal=f["signal"],
                    observed=f["observed"],
                    binning=f["binning"],
                    calibration_alphas=tuple(f.get("calibration_alphas", (0.0, 0.25, 0.5, 0.75, 1.0))),
                    calibration_trials=int(f.get("calibration_trials", 4)),
                    calibration_count=f.get("calibration_count"),
                    alpha_grid=int(f.get("alpha_grid", 201)),
                    mode=f.get("mode", "both"),
                )
            return cls(
                seed=int(seed) if seed is not None else 0,
                inputs=inputs,
                output_dir=d.get("output_dir"),
                rescale=d.get("rescale", "none"),
                region_weights=d.get("region_weights"),
                statistics=tuple(d.get("statistics", ALL_STATISTICS)),
                fit=fit,
                histogram_specs=dict(d.get("histogram_specs", {})),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed run configuration: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def hash(self) -> str:
        return config_hash(self.to_dict())
