"""File formats: CSV tables, JSON outputs and run configs.

Events, trees, histograms, comparisons and fit curves are CSV tables, all
written by :func:`write_table` and read by :func:`read_table`: ``#``
comment lines, a header row, then the rows. Numbers are printed with
shortest-round-trip precision, so a write/read cycle preserves every value
bit for bit; text holding a comma, a quote or a line break, or starting
with ``#`` after any blanks, is quoted. A file without its expected
header, or a row with the wrong number of fields, is refused with its
line number.

Every file this package writes starts with a one-line provenance comment
carrying the tool version, the hash of the effective configuration that
produced it, and the master seed, so identical configurations can be
recognized from their outputs alone. Every file is read and written as
UTF-8, and written through :func:`write_text_atomic`, so it is never left
half-written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import re
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateStatistic, DimensionMismatch, EventFileError
from .geometry import PointSet, RegionWeight, rescaled
from .stats import STATISTICS, Histogram

if TYPE_CHECKING:
    from .generators import GeneratorSpec
    from .mst import Tree

WEIGHT_COLUMN = "weight"
LABEL_COLUMN = "label"

_RESERVED = (WEIGHT_COLUMN, LABEL_COLUMN)
_PLAIN_BYTES = b'0123456789+-.eE,"\t\n\r '  # in rows that numpy reads as float() does


def config_int(name: str, value: Any) -> int:
    """``value`` as an int: an integer or a float with no fraction. Anything
    else, a bool, a string or None included, is refused with ``ValueError``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    whole = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if not (integral or whole):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    return f"# spantree {__version__} config={cfg_hash} seed={'-' if seed is None else seed}"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, encoded as UTF-8, in one step.

    The text goes to a new file beside ``path`` that is then renamed over
    it, so ``path`` never holds part of the text: a failed or interrupted
    write leaves the old file, if any, as it was. The file gets the mode
    of a newly created one, even where it replaces another.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        # created like open(path, "w") would create path: mode 0o666 less the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # named after the target, not the temporary file
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


# ---------------------------------------------------------------------------
# CSV tables

# csv.writer quotes a field holding the delimiter, the quote or a line feed;
# a lone carriage return is quoted too, as the csv reader cannot read it bare,
# and so is a leading "#", which would turn the line into a comment
_NEEDS_QUOTES = re.compile('[,"\r\n]|^\\s*#').search


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _cells(column) -> list[str]:
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    return [_quote(c) if isinstance(c, str) else repr(c) for c in column]


def write_table(path: str | Path, comments, header: Sequence[str], columns) -> None:
    """Write the non-empty ``comments``, the header, then one row per entry of ``columns``.

    A column is a numpy array, or a list of Python numbers and text.
    """
    lines = [c for c in comments if c]
    lines.append(",".join(map(_quote, header)))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _csv_records(lines: Iterable[str], comments: list[str] | None = None):
    """Yield (first line number, cells) for each csv record in ``lines``.

    Blank lines and lines starting with ``#`` are skipped between records,
    the latter appended to ``comments`` when given; a quoted field keeps
    every line it spans, blank or not.
    """
    start = 0

    def record_lines():
        nonlocal start
        for lineno, line in enumerate(lines, start=1):
            if not start:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    if stripped and comments is not None:
                        comments.append(stripped)
                    continue
                start = lineno
            yield line

    for cells in csv.reader(record_lines()):
        yield start, cells
        start = 0


def read_table(path: str | Path, what: str, header: Sequence[str] | None = None, comments=None):
    """A table's header and its (line number, cells) rows.

    ``what`` names the file in errors. The header must equal ``header`` when
    given; comment lines are appended to ``comments`` when given. Raises
    :class:`EventFileError` for an unreadable or non-UTF-8 file, a missing or
    unexpected header, and a row whose field count differs from the header's.
    """
    try:
        # newline="" hands line endings inside quoted fields to the csv reader as written
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(_csv_records(fh, comments))
    except (OSError, UnicodeDecodeError) as exc:
        raise EventFileError(f"{path}: cannot read {what}: {exc}") from exc
    except csv.Error as exc:
        raise EventFileError(f"{path}: {exc}") from exc
    if not records:
        raise EventFileError(f"{path}: no header row found")
    lineno, found = records[0][0], [h.strip() for h in records[0][1]]
    if header is not None and found != list(header):
        raise EventFileError(f"{path}: line {lineno}: {what} header must be {','.join(header)}")
    rows = records[1:]
    for lineno, cells in rows:
        if len(cells) != len(found):
            raise EventFileError(
                f"{path}: line {lineno}: expected {len(found)} fields, found {len(cells)}"
            )
    return found, rows


def _numbers(path: str | Path, rows, cols: Sequence[int], read=float) -> np.ndarray:
    """Cells ``cols`` of ``read_table`` rows as one (rows, cols) float64 or int64 array.

    numpy reads each cell by calling ``read``, ``float`` or ``int``; only when one is
    refused, not finite or beyond int64 are the rows walked, to name the first such line.
    """
    get, dtype = itemgetter(*cols), np.int64 if read is int else np.float64
    try:
        values = np.array([get(cells) for _, cells in rows], dtype).reshape(len(rows), len(cols))
        if read is int or np.isfinite(values).all():
            return values
    except (ValueError, OverflowError):
        pass
    for lineno, cells in rows:
        try:
            row = [read(cells[i]) for i in cols]
        except ValueError as exc:
            raise EventFileError(f"{path}: line {lineno}: {exc}") from exc
        if read is int and not all(-(2**63) <= i < 2**63 for i in row):
            raise EventFileError(f"{path}: line {lineno}: vertex index beyond 64 bits")
        if read is float and not all(map(math.isfinite, row)):
            raise EventFileError(f"{path}: line {lineno}: non-finite value")
    raise AssertionError(f"{path}: numpy refused cells that {read.__name__}() reads")


# ---------------------------------------------------------------------------
# event files

def write_events(ps: PointSet, path: str | Path, comment: str | None = None) -> None:
    """Write a point set as an event table.

    The weight column is emitted only when some weight differs from 1, the
    label column only when labels are present.
    """
    header = list(ps.feature_names or (f"x{i}" for i in range(ps.dimension)))
    columns = list(ps.coords.T)
    if np.any(ps.weights != 1.0):
        header.append(WEIGHT_COLUMN)
        columns.append(ps.weights)
    if ps.labels is not None:
        header.append(LABEL_COLUMN)
        columns.append([label or "" for label in ps.labels])
    write_table(path, [comment], header, columns)


@dataclass(frozen=True)
class ColumnFilter:
    """Keep only rows whose feature lies within [lo, hi] (either open)."""

    feature: int | str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, numbers.Real) or math.isnan(bound)
            ):
                raise ValueError(f"filter on {self.feature!r}: bounds are numbers, got {bound!r}")


def filter_events(ps: PointSet, filters: Sequence[ColumnFilter]) -> PointSet:
    """Keep the events that lie within every filter's [lo, hi].

    Raises ``ValueError`` for a filter on a feature ``ps`` lacks, or one
    that leaves no event.
    """
    keep = np.ones(len(ps), dtype=bool)
    for f in filters:
        col = ps.coords[:, ps.feature_index(f.feature)]
        if f.lo is not None:
            keep &= col >= f.lo
        if f.hi is not None:
            keep &= col <= f.hi
        if not keep.any():
            raise ValueError(f"filter on {f.feature!r} removed every event")
    if keep.all():
        return ps
    return PointSet(
        ps.coords[keep],
        ps.weights[keep],
        [ps.labels[i] for i in np.flatnonzero(keep)] if ps.labels else None,
        ps.feature_names,
    )


def _plain_table(path: str | Path) -> tuple | None:
    """The header, values and labels (None) of an event file that numpy's C reader
    reads as ``_walked_table`` does; None for any other file.

    That is a regular file with features, no labels and no name twice, whose rows
    start right after the header, hold only ``_PLAIN_BYTES`` (no ``#``, ``_``,
    ``nan``, non-ASCII digit or U+001C to U+001F, which numpy strips and
    ``float()`` refuses) and no line of blanks, and give finite numbers, no
    negative weight and no field over the ``csv`` size limit.
    """
    if not os.path.isfile(path):  # the walker reads a pipe, which gives its rows once
        return None
    try:
        with io.TextIOWrapper(io.BytesIO(Path(path).read_bytes()), encoding="utf-8",
                              newline="") as lines:
            header = [h.strip() for h in next(_csv_records(lines))[1]]
            first = lines.readline()  # numpy warns of a file without rows
            data = (first + lines.read()).encode()
        if (LABEL_COLUMN in header or len(set(header)) < len(header) or header == [WEIGHT_COLUMN]
                or not first.strip() or data.translate(None, _PLAIN_BYTES)
                or any(s in data for s in (b"\n ", b"\n\t", b"\r ", b"\r\t"))
                and re.search(rb"[\r\n][ \t]+(?:[\r\n]|\Z)", data)):  # numpy refuses a line of blanks
            return None
        if len(data) > csv.field_size_limit():  # fields lie between commas, and line ends
            b = np.frombuffer(data, np.uint8)  # too unless a quoted field may span lines
            cut = np.flatnonzero((b == 44) if b'"' in data else (b == 44) | (b == 10) | (b == 13))
            if np.diff(cut, prepend=-1, append=len(data)).max() > csv.field_size_limit():
                return None
        values = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                            delimiter=",", quotechar='"', comments=None, ndmin=2)
    except (OSError, ValueError, StopIteration, csv.Error):  # a decoding error is a ValueError
        return None
    weighted = WEIGHT_COLUMN in header
    if (values.shape[1] != len(header) or not np.isfinite(values).all()
            or weighted and (values[:, header.index(WEIGHT_COLUMN)] < 0).any()):
        return None
    if weighted and header[-1] != WEIGHT_COLUMN:  # _numbers' order: the features, then the weight
        values = values[:, sorted(range(len(header)), key=lambda i: header[i] == WEIGHT_COLUMN)]
    return header, values, None


def _walked_table(path: str | Path) -> tuple:
    """Any event file's header, values (features, then any weight) and labels, walked."""
    header, rows = read_table(path, "event file")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise EventFileError(f"{path}: header names {repeated} more than once")
    features = [i for i, h in enumerate(header) if h not in _RESERVED]
    if not features:
        raise EventFileError(f"{path}: header declares no feature columns")
    col = {h: i for i, h in enumerate(header)}
    if not rows:
        raise EventFileError(f"{path}: event file contains no rows")
    values = _numbers(path, rows, features + ([col[WEIGHT_COLUMN]] if WEIGHT_COLUMN in col else []))
    if WEIGHT_COLUMN in col and (values[:, -1] < 0).any():
        i = int(np.argmax(values[:, -1] < 0))
        raise EventFileError(f"{path}: line {rows[i][0]}: negative weight {float(values[i, -1])!r}")
    labels = [cells[col[LABEL_COLUMN]] or None for _, cells in rows] if LABEL_COLUMN in col else []
    return header, values, labels if any(labels) else None


def load_sample(path: str | Path, rescale: str = "none", weigh=None) -> PointSet:
    """Parse an event table into one PointSet, checked once rescaled and weighted.

    The features are rescaled by ``rescale`` (see ``rescale_features``), then
    ``weigh(coords, weights, feature_names)``, such as :meth:`RunConfig.weigh`,
    returns the weights. Header names lose their surrounding blanks; label
    cells are kept as written, and an empty one is no label. An error names a
    header that names a column twice, else the first line with the wrong
    field count, else the first with a feature or weight that is no finite
    float, else the first with a negative weight. numpy's C reader reads the
    plain files (``_plain_table``), the row walker the rest: the same values.
    """
    header, values, labels = _plain_table(path) or _walked_table(path)
    names = tuple(h for h in header if h not in _RESERVED)
    w = values[:, -1] if WEIGHT_COLUMN in header else np.ones(len(values))
    try:
        coords = rescaled(values[:, : len(names)], rescale)
        w = w if weigh is None else weigh(coords, w, names)
        return PointSet(coords, w, labels, names)
    except ValueError as exc:  # a rescale the sample cannot take, or an overflowing span
        raise EventFileError(f"{path}: {exc}") from None
    except DegenerateStatistic as exc:  # weights that overflow times their region factors
        raise DegenerateStatistic(f"{path}: {exc}") from None


# the same reader, named for reading a table as written: no rescale, no weigh
read_events = load_sample


# ---------------------------------------------------------------------------
# tree files

TREE_HEADER = ("u", "v", "length", "weight")


def write_tree_csv(tree: Tree, path: str | Path, comment: str | None = None) -> None:
    """Write tree edges as ``u,v,length,weight`` in canonical order."""
    columns = (tree.edge_u, tree.edge_v, tree.lengths, tree.edge_weights)
    write_table(path, [comment], TREE_HEADER, columns)


def read_tree_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a tree file back as (u, v, length, weight) arrays.

    An error names the first line whose ``u`` or ``v`` is no int64, else the
    first whose length or weight is no finite float.
    """
    _, rows = read_table(path, "tree file", TREE_HEADER)
    return (*_numbers(path, rows, (0, 1), int).T.copy(), *_numbers(path, rows, (2, 3)).T.copy())


# ---------------------------------------------------------------------------
# histogram files

HISTOGRAM_HEADER = ("bin_lo", "bin_hi", "content")


def write_histogram_csv(h: Histogram, path: str | Path, comment: str | None = None) -> None:
    """Write ``bin_lo,bin_hi,content`` rows plus overflow/underflow trailers."""
    folds = f"# folds_overflow={'true' if h.folds_overflow else 'false'}"
    edges = h.edges.tolist()
    columns = (
        edges[:-1] + ["overflow", "underflow"],
        edges[1:] + ["", ""],
        np.append(h.contents, (h.overflow, h.underflow)),
    )
    write_table(path, [comment, folds], HISTOGRAM_HEADER, columns)


def read_histogram_csv(path: str | Path) -> Histogram:
    """Read a histogram file back; bins narrower than the float spacing may be empty.

    An error names the first bin row, then trailer row, with a cell that is
    no finite float; else the first ``bin_lo`` above its ``bin_hi`` or unequal
    to the ``bin_hi`` before it; else no bins or an empty range; else the
    first ``bin_lo`` off the uniform split of [lo, hi) by over 1e-9 (hi - lo).
    """
    comments: list[str] = []
    _, rows = read_table(path, "histogram file", HISTOGRAM_HEADER, comments)
    flags = [c.split("folds_overflow=")[1].strip() for c in comments if "folds_overflow=" in c]
    ends = [row for row in rows if row[1][0] in ("overflow", "underflow")]
    bin_rows = [row for row in rows if row[1][0] not in ("overflow", "underflow")]
    los, his, contents = _numbers(path, bin_rows, (0, 1, 2)).T.copy()
    trailers = {cells[0]: float(v) for (_, cells), v in zip(ends, _numbers(path, ends, (2,)).flat)}
    bad = (los > his) | np.append(False, los[1:] != his[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        lo, hi = float(los[i]), float(his[i])
        fault = f"is above bin_hi {hi!r}" if lo > hi else "differs from the bin_hi before it"
        raise EventFileError(f"{path}: line {bin_rows[i][0]}: bin_lo {lo!r} {fault}")
    if not bin_rows:
        raise EventFileError(f"{path}: histogram file contains no bins")
    lo, hi = float(los[0]), float(his[-1])
    if not lo < hi:
        raise EventFileError(f"{path}: histogram range [{lo!r}, {hi!r}) is empty")
    folds = not flags or flags[-1] == "true"
    h = Histogram(lo, hi, len(bin_rows), contents, folds_overflow=folds, **trailers)
    off = np.abs(los - h.edges[:-1]) > 1e-9 * (hi - lo)
    if off.any():
        i = int(np.argmax(off))
        raise EventFileError(
            f"{path}: line {bin_rows[i][0]}: bin_lo {float(los[i])!r} is off the uniform split "
            f"of [{lo!r}, {hi!r}) into {h.nbins} bins"
        )
    return h


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
class MixtureSpec:
    """A ``two_component`` input: the arguments of ``gen_two_component``.

    A ``seed`` of None derives from the master seed. ``source`` is the
    mapping as written, which :meth:`RunConfig.to_dict` returns unchanged.
    """

    count: int
    alpha_true: float
    background: GeneratorSpec
    signal: GeneratorSpec
    seed: int | None
    source: Mapping[str, Any]

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MixtureSpec":
        from .generators import GeneratorSpec, check_component, check_mixture

        unknown = sorted(set(d) - {"count", "alpha_true", "seed", "background", "signal"})
        if unknown:
            raise ValueError(f"unknown two_component keys {unknown}")
        # the mixture draws each component's count and seed: an entry sets neither
        for role in ("background", "signal"):
            check_component(d[role].get("kind"))
        bg, sig = (GeneratorSpec(count=1, seed=0, **d[role]) for role in ("background", "signal"))
        seed = None if d.get("seed") is None else config_int("two_component seed", d["seed"])
        count = config_int("two_component count", d["count"])
        if seed is not None and seed < 0:
            raise ValueError(f"two_component seed must be non-negative, got {seed}")
        mix = cls(count, float(d["alpha_true"]), bg, sig, seed, d)
        check_mixture(mix.count, mix.alpha_true, mix.background, mix.signal)
        return mix


_INPUT_KEYS = ("file", "generator", "two_component", "filters")


@dataclass(frozen=True)
class InputSpec:
    """One named pipeline input: a file, a generator, or a labeled mixture.

    ``filters`` apply to the events of every kind of input.
    """

    name: str
    file: str | None = None
    generator: GeneratorSpec | None = None
    two_component: MixtureSpec | None = None
    filters: tuple[ColumnFilter, ...] = ()

    def __post_init__(self) -> None:
        provided = sum(x is not None for x in (self.file, self.generator, self.two_component))
        if provided != 1:
            raise ConfigError(
                f"input {self.name!r} must declare exactly one of file/generator/two_component"
            )
        # a generated sample's features are known before it is drawn
        spec = self.generator or (self.two_component and self.two_component.background)
        names = spec.feature_names if spec else None
        for f in self.filters if names else ():
            if f.feature not in names and f.feature not in range(len(names)):
                raise ConfigError(f"input {self.name!r}: unknown filter feature {f.feature!r}")

    @classmethod
    def from_dict(cls, name: str, d: Mapping[str, Any]) -> "InputSpec":
        from .generators import GeneratorSpec

        try:
            gen, two = d.get("generator"), d.get("two_component")
            unknown = sorted(set(d) - set(_INPUT_KEYS))
            if unknown:
                raise ValueError(f"unknown keys {unknown}; known: {list(_INPUT_KEYS)}")
            return cls(
                name=name,
                file=d.get("file"),
                generator=GeneratorSpec.from_dict(gen) if gen is not None else None,
                two_component=MixtureSpec.from_dict(two) if two is not None else None,
                filters=tuple(ColumnFilter(**f) for f in d.get("filters", ())),
            )
        except KeyError as exc:
            raise ConfigError(f"input {name!r} lacks {exc}") from exc
        except (AttributeError, DimensionMismatch, TypeError, ValueError) as exc:
            raise ConfigError(f"input {name!r}: {exc}") from exc


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
        from .analysis import GridBinning, check_calibration, resolve_alpha_grid

        # what can be checked before any sample exists; the binning's features
        # and the calibration count against the component sizes need the data
        try:
            object.__setattr__(self, "calibration_alphas", tuple(self.calibration_alphas))
            for name in ("calibration_trials", "alpha_grid"):
                object.__setattr__(self, name, config_int(name, getattr(self, name)))
            if self.calibration_count is not None:  # None: the smaller component's size
                count = config_int("calibration_count", self.calibration_count)
                object.__setattr__(self, "calibration_count", count)
            GridBinning.from_dict(self.binning)
            resolve_alpha_grid(self.alpha_grid)
            check_calibration(
                self.calibration_alphas, self.calibration_trials, self.calibration_count
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"fit section: {exc}") from exc


ALL_STATISTICS = tuple(STATISTICS)
# histograms a run config can set the range of: stats writes the first four,
# compare the last two
HISTOGRAM_NAMES = ALL_STATISTICS + ("connection_length", "connection_ratio")
# one row per bin: a million bins already make a 28 MB file and a 0.44 GB peak
MAX_NBINS = 10**6
# the run-config keys each command reads; each also accepts the echoed "config" hash
COMMAND_KEYS = {
    "stats": ("output_dir", "statistics", "region_weights", "histogram_specs"),
    "compare": ("output_dir", "region_weights", "histogram_specs"),
    "fit": ("seed", "inputs", "output_dir", "rescale", "region_weights", "fit"),
}


def histogram_range(name: str, spec: Any) -> tuple[float, float, int, bool]:
    """``histogram_specs[name]`` as the (lo, hi, nbins, overflow) arguments of ``histogram``."""
    if name not in HISTOGRAM_NAMES:
        raise ConfigError(f"histogram_specs: unknown histogram {name!r}; known: {HISTOGRAM_NAMES}")
    try:
        missing = [key for key in ("lo", "hi", "nbins") if key not in spec]
        if missing:
            raise ConfigError(f"histogram_specs[{name!r}] lacks {missing}")
        unknown = sorted(set(spec) - {"lo", "hi", "nbins", "overflow"})
        if unknown:
            raise ConfigError(f"histogram_specs[{name!r}]: unknown keys {unknown}")
        lo, hi = float(spec["lo"]), float(spec["hi"])
        nbins = config_int(f"histogram_specs[{name!r}] nbins", spec["nbins"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"histogram_specs[{name!r}]: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"histogram_specs[{name!r}]: need finite lo < hi, got [{lo}, {hi})")
    if not 1 <= nbins <= MAX_NBINS:
        raise ConfigError(f"histogram_specs[{name!r}]: nbins must be 1 to {MAX_NBINS}, got {nbins}")
    overflow = spec.get("overflow", True)
    if not isinstance(overflow, bool):
        raise ConfigError(f"histogram_specs[{name!r}]: overflow is true or false, got {overflow!r}")
    return lo, hi, nbins, overflow


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of a reproducible pipeline run.

    Every section is optional, though ``fit`` needs ``inputs`` and a ``fit``
    section; loaded for a command, a config may hold only the keys that
    command reads. ``region_weights`` and ``histogram_specs`` are parsed
    once, at construction, and applied by :meth:`weigh` and :meth:`binning`.
    """

    seed: int = 0
    inputs: dict[str, InputSpec] = field(default_factory=dict)
    output_dir: str | None = None
    rescale: str = "none"
    region_weights: dict[str, Any] | None = None
    statistics: tuple[str, ...] = ALL_STATISTICS
    fit: FitSettings | None = None
    histogram_specs: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.rescale != "none":
            raise ConfigError(
                f"run configs support only rescale 'none', got {self.rescale!r}; "
                "rescale event files with the --rescale flag of build, stats or compare"
            )
        unknown = set(self.statistics) - set(ALL_STATISTICS)
        if unknown:
            raise ConfigError(f"unknown statistics {sorted(unknown)}; known: {ALL_STATISTICS}")
        repeated = sorted({name for name in self.statistics if self.statistics.count(name) > 1})
        if repeated:
            raise ConfigError(f"repeated statistics {repeated}")
        if self.fit is not None:
            for role in (self.fit.background, self.fit.signal, self.fit.observed):
                if role not in self.inputs:
                    raise ConfigError(f"fit references undeclared input {role!r}")
        bins = {name: histogram_range(name, spec) for name, spec in self.histogram_specs.items()}
        object.__setattr__(self, "_bins", bins)
        rw = None if self.region_weights is None else RegionWeight.from_dict(self.region_weights)
        object.__setattr__(self, "_region", rw)
        undeclared = sorted(set(rw.apply_to if rw else ()) - set(self.inputs))
        if undeclared:
            raise ConfigError(f"region_weights: apply_to names undeclared inputs {undeclared}")

    def weigh(self, coords: np.ndarray, weights: np.ndarray, names=None, name=None) -> np.ndarray:
        """``weights`` times the region weight factors of ``coords`` (features ``names``)
        if they apply to input ``name``: an empty ``apply_to`` applies them to every
        input, and they always apply to an event file the config does not name (None).
        A product that overflows raises ``DegenerateStatistic``."""
        rw = self._region
        if rw is None or (rw.apply_to and name is not None and name not in rw.apply_to):
            return weights
        try:
            return rw.weigh(coords, weights, names)
        except ValueError as exc:  # a box feature the events lack
            raise ConfigError(f"region_weights: {exc}") from exc

    def binning(self, name: str, values: np.ndarray) -> tuple[float, float, int, bool]:
        """The (lo, hi, nbins, overflow) arguments of ``histogram`` for ``values`` of ``name``:
        its spec, else unit bins for ``degree``, else 50 bins over the finite values."""
        if name in self._bins:
            return self._bins[name]
        if name == "degree":
            top = int(values.max())
            return 0.5, top + 0.5, top, False
        finite = values[np.isfinite(values)]
        if not finite.size:
            return 0.0, 1.0, 50, True
        lo, hi = float(finite.min()), float(finite.max())
        if hi <= lo:
            hi = lo + 1.0
        return lo, hi + 1e-9 * (hi - lo), 50, True

    def applied(self) -> dict[str, Any]:
        """The sections :meth:`weigh` and :meth:`binning` apply, as a command hashes them."""
        return {"histogram_specs": self.histogram_specs, "region_weights": self.region_weights}

    def to_dict(self) -> dict[str, Any]:
        inputs = {}
        for name, spec in self.inputs.items():
            entry = {
                "file": spec.file,
                "generator": spec.generator and spec.generator.to_dict(),
                "two_component": spec.two_component and spec.two_component.source,
                "filters": [asdict(f) for f in spec.filters] or None,
            }
            inputs[name] = {key: value for key, value in entry.items() if value is not None}
        out = {
            "seed": self.seed,
            "inputs": inputs,
            "rescale": self.rescale,
            "statistics": list(self.statistics) if self.statistics != ALL_STATISTICS else None,
            "output_dir": self.output_dir,
            "region_weights": self.region_weights,
            "fit": self.fit and {f.name: getattr(self.fit, f.name) for f in fields(self.fit)},
            "histogram_specs": self.histogram_specs or None,
        }
        return {key: value for key, value in out.items() if value is not None}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], command: str | None = None) -> "RunConfig":
        if not isinstance(d, Mapping):
            raise ConfigError("a run configuration must be a JSON object")
        # "config" is the hash that effective_config.json carries next to the
        # settings; it is recomputed on every run, so an echoed config loads
        known = {"config", *(COMMAND_KEYS[command] if command else (f.name for f in fields(cls)))}
        unknown = sorted(set(d) - known)
        if unknown:
            where = f" for {command}" if command else ""
            raise ConfigError(f"unknown run config keys {unknown}{where}; known: {sorted(known)}")
        try:
            inputs = {n: InputSpec.from_dict(n, e) for n, e in d.get("inputs", {}).items()}
            seed = d.get("seed")
            if seed is None and any(spec.file is None for spec in inputs.values()):
                raise ConfigError("a seed is required whenever any input is generated")
            statistics = d.get("statistics", list(ALL_STATISTICS))
            if not isinstance(statistics, list):
                raise ConfigError(f"statistics must be a list of names, got {statistics!r}")
            config = cls(
                seed=config_int("seed", seed) if seed is not None else 0,
                inputs=inputs,
                output_dir=d.get("output_dir"),
                rescale=d.get("rescale", "none"),
                region_weights=d.get("region_weights"),
                statistics=tuple(statistics),
                fit=FitSettings(**d["fit"]) if "fit" in d else None,
                histogram_specs=dict(d.get("histogram_specs", {})),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed run configuration: {exc}") from exc
        # a spec for a histogram the command never writes would change only the hash
        written = {"stats": config.statistics, "compare": HISTOGRAM_NAMES[-2:]}
        unused = [n for n in config.histogram_specs if n not in written.get(command, HISTOGRAM_NAMES)]
        if unused:
            raise ConfigError(f"histogram_specs: {command} writes no {unused[0]!r} histogram; "
                              f"it writes {list(written[command])}")
        return config

    @classmethod
    def load(cls, path: str | Path, command: str | None = None) -> "RunConfig":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload, command)

    def hash(self) -> str:
        return config_hash(self.to_dict())
