"""Command-line interface.

Subcommands: ``gen`` (synthetic samples), ``build`` (tree file),
``stats`` (tree plus statistic histograms and a summary), ``compare``
(connection lengths/ratios between two samples), ``fit`` (signal-fraction
fit driven by a run config), and ``plot`` (SVG renderings).

Every output embeds a hash of the effective configuration, and reruns
with identical configuration produce byte-identical outputs. Exit codes:
0 success, 2 parse/config error, 3 numeric/domain error or lack of memory
(a dead calibration child included), 4 I/O error. Outputs go to ``-o``,
else a run config's ``output_dir``, else ``SPANTREE_OUTPUT_DIR`` when set,
else the current directory; the last three are directories, created when
missing, while ``-o`` of a single-file command names the file unless it
ends in a path separator or names a directory.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, EventFileError, SpanTreeError

if TYPE_CHECKING:
    from .generators import GeneratorSpec
    from .geometry import PointSet

# the names of generators.PRESET_NAMES, spelt out so that building the parser
# loads no numpy: each command imports the modules it runs when it runs
PRESET_NAMES = ("demo-background", "demo-signal", "dense-grid", "disc", "disc3d-exp",
                "disc3d-uniform", "exp-1d", "quadratic-grid", "sin2-1d", "sparse-grid", "strip",
                "uniform-1d")


def _out_path(path_arg: str | None, name: str | None = None) -> Path:
    """The output directory, created when missing, or the file ``name`` inside it.

    The directory is ``path_arg`` (``-o`` or a config's ``output_dir``), else
    ``SPANTREE_OUTPUT_DIR``, else the current directory. With ``name``, a
    ``path_arg`` that neither ends in a path separator nor names a directory
    is the file itself.
    """
    if name and path_arg and not path_arg.endswith((os.sep, "/")) and not Path(path_arg).is_dir():
        return Path(path_arg)
    out = Path(path_arg or os.environ.get("SPANTREE_OUTPUT_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out / name if name else out


def _echo(line: str) -> None:
    """Print ``line``, writing what stdout cannot encode as backslash escapes, as stderr does."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


# ---------------------------------------------------------------------------
# gen

def _gen_spec(args) -> GeneratorSpec:
    import json

    from .generators import GeneratorSpec, preset_spec

    if args.preset:
        return preset_spec(args.preset, args.seed if args.seed is not None else 0, args.count)
    try:
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"{args.spec}: cannot load generator spec: {exc}") from exc
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.count is not None:
        payload["count"] = args.count
    return GeneratorSpec.from_dict(payload)


def _cmd_gen(args) -> int:
    from .generators import generate
    from .io import config_hash, provenance_line, write_events

    try:
        spec = _gen_spec(args)
        ps = generate(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generator spec: {exc}") from exc
    cfg = {"command": "gen", "spec": spec.to_dict()}
    out = _out_path(args.output, f"{args.preset or spec.kind}.csv")
    write_events(ps, out, provenance_line(config_hash(cfg), spec.seed))
    _echo(f"wrote {len(ps)} events ({ps.dimension} features) to {out}")
    return 0


# ---------------------------------------------------------------------------
# build / stats

def _cmd_build(args) -> int:
    from .io import config_hash, file_fingerprint, load_sample, provenance_line, write_tree_csv
    from .mst import build_mst_kruskal, tree_total_length

    tree = build_mst_kruskal(load_sample(args.events, args.rescale))
    cfg = {"command": "build", "events": file_fingerprint(args.events), "rescale": args.rescale}
    out = _out_path(args.output, "tree.csv")
    write_tree_csv(tree, out, provenance_line(config_hash(cfg)))
    _echo(f"wrote tree with {tree.edge_count} edges, total length {tree_total_length(tree):.6g}")
    return 0


def _cmd_stats(args) -> int:
    from dataclasses import asdict

    from .io import (RunConfig, config_hash, file_fingerprint, load_sample, provenance_line,
                     write_histogram_csv, write_json, write_tree_csv)
    from .pipeline import run_stats

    config = RunConfig.load(args.config, "stats") if args.config else RunConfig()
    run = run_stats(load_sample(args.events, args.rescale, config.weigh), config)
    cfg = {"command": "stats", "events": file_fingerprint(args.events), "rescale": args.rescale,
           "statistics": list(config.statistics), **config.applied()}
    prov = provenance_line(config_hash(cfg))
    summary = {**asdict(run.summary), "version": __version__, "config": config_hash(cfg),
               "vertex_count": run.tree.vertex_count, "total_length": run.total_length}
    summary["degree_counts"] = {str(k): v for k, v in summary["degree_counts"].items()}
    # every output is computed before the first is written, so a failed run writes none
    outdir = _out_path(args.output or config.output_dir)
    write_tree_csv(run.tree, outdir / "tree.csv", prov)
    for name, h in run.histograms.items():
        write_histogram_csv(h, outdir / f"hist_{name}.csv", prov)
    write_json(summary, outdir / "summary.json")
    _echo(f"wrote statistics for {run.tree.vertex_count} events to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _cmd_compare(args) -> int:
    import numpy as np

    from .io import (RunConfig, config_hash, file_fingerprint, load_sample, provenance_line,
                     write_histogram_csv, write_table)
    from .pipeline import run_compare

    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    config = RunConfig.load(args.config, "compare") if args.config else RunConfig()
    samples = [load_sample(p, args.rescale, config.weigh) for p in (args.subject, args.reference)]
    comparisons = run_compare(*samples, args.k, args.pool, args.both, config)
    cfg = {"command": "compare", "subject": file_fingerprint(args.subject),
           "reference": file_fingerprint(args.reference), "k": args.k, "edge_pool": args.pool,
           "both": args.both, "rescale": args.rescale, **config.applied()}
    prov = provenance_line(config_hash(cfg))
    header = ("vertex", "connection_length", "connection_ratio", "weight")
    # both directions are computed before the first file is written, so a failed run writes none
    outdir = _out_path(args.output or config.output_dir)
    for c in comparisons:
        r = c.result
        columns = (np.arange(len(r.weights)), r.connection_length, r.connection_ratio, r.weights)
        write_table(outdir / f"comparison_{c.tag}.csv", [prov], header, columns)
        write_histogram_csv(c.lengths, outdir / f"hist_connection_length_{c.tag}.csv", prov)
        write_histogram_csv(c.ratios, outdir / f"hist_connection_ratio_{c.tag}.csv", prov)
    _echo(f"wrote comparison tables to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# fit

def _cmd_fit(args) -> int:
    from .io import (RunConfig, config_hash, file_fingerprint, provenance_line, write_json,
                     write_table)
    from .pipeline import run_fit

    run = run_fit(RunConfig.load(args.config, "fit"), args.seed, args.mode)
    config = run.config
    hashed = config.to_dict()
    hashed.pop("output_dir", None)
    for entry in hashed["inputs"].values():
        if "file" in entry:
            entry["file"] = file_fingerprint(entry["file"])
    cfg_hash = config_hash(hashed)
    prov = provenance_line(cfg_hash, config.seed)

    outdir = _out_path(args.output or config.output_dir)
    write_json({**config.to_dict(), "config": cfg_hash}, outdir / "effective_config.json")
    fits = {n: r for n, r in (("baseline", run.baseline), ("augmented", run.augmented)) if r}
    curves = [r.q_curve for r in fits.values()]
    columns = [curves[0][:, 0]] + [curve[:, 1] for curve in curves]
    write_table(outdir / "q_curve.csv", [prov], ["alpha"] + [f"q_{n}" for n in fits], columns)

    result: dict = {"version": __version__, "config": cfg_hash, "mode": config.fit.mode}
    for name, r in fits.items():
        result[name] = {"alpha_hat": r.alpha_hat, "sigma_alpha": r.sigma_alpha, "q_min": r.q_min}
    if run.augmented is not None:
        cal = {key: getattr(run.calibration, key)
               for key in ("slope", "intercept", "slope_stderr", "sigma_l")}
        result["calibration"] = {**cal, "mu_obs": run.mu_obs}
    write_json(result, outdir / "fit_result.json")

    for name, res in fits.items():
        _echo(f"{name}: alpha_hat={res.alpha_hat:.6f} sigma_alpha={res.sigma_alpha:.6f}")
    return 0


# ---------------------------------------------------------------------------
# plot

def _parse_axes(spec: str | None, ps: PointSet) -> tuple[int, int]:
    if spec is None:
        if ps.dimension == 2:
            return 0, 1
        raise ConfigError(
            f"events have {ps.dimension} features; pick a 2-d projection with "
            "--axes, e.g. --axes x,z"
        )
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"--axes expects two comma-separated features, got {spec!r}")
    try:
        idx = [ps.feature_index(int(p) if p.lstrip("-").isdigit() else p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--axes {spec!r}: {exc}") from exc
    return idx[0], idx[1]


def _cmd_plot_tree(args) -> int:
    import numpy as np

    from .io import (config_hash, file_fingerprint, load_sample, provenance_line, read_tree_csv,
                     write_text_atomic)
    from .mst import build_mst_kruskal
    from .svg import render_tree_svg

    ps = load_sample(args.events)
    ax, ay = _parse_axes(args.axes, ps)
    if args.tree:
        us, vs, _, _ = read_tree_csv(args.tree)
        outside = (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= len(ps))
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise EventFileError(
                f"{args.tree}: edge {int(us[i])}-{int(vs[i])} names a vertex outside "
                f"the {len(ps)} events of {args.events}"
            )
    else:
        tree = build_mst_kruskal(ps)
        us, vs = tree.edge_u, tree.edge_v
    cfg = {"command": "plot-tree", "events": file_fingerprint(args.events),
           "tree": file_fingerprint(args.tree) if args.tree else None, "axes": args.axes}
    coords = ps.coords[:, (ax, ay)]
    names = ps.feature_names or tuple(f"x{i}" for i in range(ps.dimension))
    svg = render_tree_svg(
        coords,
        us,
        vs,
        labels=ps.labels,
        title=f"{names[ax]} vs {names[ay]}",
        comment=provenance_line(config_hash(cfg)),
    )
    out = _out_path(args.output, "tree.svg")
    write_text_atomic(out, svg)
    _echo(f"wrote {out}")
    return 0


def _cmd_plot_hist(args) -> int:
    from .io import (config_hash, file_fingerprint, provenance_line, read_histogram_csv,
                     write_text_atomic)
    from .svg import render_histograms_svg

    named = [(Path(p).stem, read_histogram_csv(p)) for p in args.histograms]
    cfg = {"command": "plot-hist", "histograms": [file_fingerprint(p) for p in args.histograms]}
    svg = render_histograms_svg(named, comment=provenance_line(config_hash(cfg)))
    out = _out_path(args.output, "histogram.svg")
    write_text_atomic(out, svg)
    _echo(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantree",
        description="Minimal spanning tree statistics for event samples.",
    )
    parser.add_argument("--version", action="version", version=f"spantree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic event sample")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES, help="named sample preset")
    group.add_argument("--spec", help="generator spec JSON file")
    p.add_argument("--seed", type=int, help="generator seed (presets default to 0)")
    p.add_argument("-n", "--count", type=int, help="override sample size")
    p.add_argument("-o", "--output", help="output file (or directory)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build the tree for an event file")
    p.add_argument("events", help="input event file")
    p.add_argument("--rescale", default="none", choices=("none", "unit-range", "unit-variance"))
    p.add_argument("-o", "--output", help="output tree file (or directory)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("stats", help="tree, statistic histograms, and summary")
    p.add_argument("events", help="input event file")
    p.add_argument("--rescale", default="none", choices=("none", "unit-range", "unit-variance"))
    p.add_argument("--config", help="run config providing histogram specs")
    p.add_argument("-o", "--output", help="output directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="connection lengths/ratios of two samples")
    p.add_argument("subject", help="subject event file")
    p.add_argument("reference", help="reference event file")
    p.add_argument("--k", type=int, default=5, help="edges pooled for the local mean")
    p.add_argument("--pool", default="reference", choices=("reference", "subject"))
    p.add_argument("--both", action="store_true", help="also compare in the swapped direction")
    p.add_argument("--rescale", default="none", choices=("none", "unit-range", "unit-variance"))
    p.add_argument("--config", help="run config providing histogram specs")
    p.add_argument("-o", "--output", help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fit", help="signal-fraction fit from a run config")
    p.add_argument("config", help="run config JSON")
    p.add_argument("--mode", choices=("baseline", "augmented", "both"))
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("-o", "--output", help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plot", help="render SVG figures")
    plot_sub = p.add_subparsers(dest="plot_kind", required=True)
    pt = plot_sub.add_parser("tree", help="render a 2-d tree projection")
    pt.add_argument("--events", required=True, help="event file with coordinates")
    pt.add_argument("--tree", help="tree file (built on the fly when omitted)")
    pt.add_argument("--axes", help="two features for the projection, e.g. x,z")
    pt.add_argument("-o", "--output", help="output SVG file (or directory)")
    pt.set_defaults(func=_cmd_plot_tree)
    ph = plot_sub.add_parser("hist", help="overlay histogram CSVs")
    ph.add_argument("histograms", nargs="+", help="histogram CSV files")
    ph.add_argument("-o", "--output", help="output SVG file (or directory)")
    ph.set_defaults(func=_cmd_plot_hist)

    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # no command calls BLAS, whose idle threads spin
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # a value already set wins
    atexit.unregister(gc.freeze)  # once per process: leave the heap at exit, not collect it
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EventFileError, ConfigError) as exc:
        return _fail(str(exc), 2)
    except SpanTreeError as exc:
        return _fail(str(exc), 3)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 3)
    except OSError as exc:
        return _fail(str(exc), 4)


if __name__ == "__main__":
    sys.exit(main())
