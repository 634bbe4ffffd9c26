"""Command-line interface.

Subcommands: ``gen`` (synthetic samples), ``build`` (tree file),
``stats`` (tree plus statistic histograms and a summary), ``compare``
(connection lengths/ratios between two samples), ``fit`` (signal-fraction
fit driven by a run config), and ``plot`` (SVG renderings).

Every output embeds a hash of the effective configuration, and reruns
with identical configuration produce byte-identical outputs. Exit codes:
0 success, 2 parse/config error, 3 numeric/domain error, 4 I/O error.
The default output location is the current directory, or
``SPANTREE_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    BinnedModel,
    GridBinning,
    RegionWeight,
    apply_region_weights,
    calibrate_mu_vs_alpha,
    fit_alpha,
    observed_mu,
)
from .compare import connection_ratios
from .errors import ConfigError, EventFileError, SpanTreeError
from .generators import (
    PRESET_NAMES,
    GeneratorSpec,
    gen_two_component,
    generate,
    preset_spec,
)
from .geometry import PointSet, rescale_features
from .io import (
    ALL_STATISTICS,
    InputSpec,
    RunConfig,
    config_hash,
    file_fingerprint,
    provenance_line,
    read_events,
    read_histogram_csv,
    read_tree_csv,
    write_events,
    write_histogram_csv,
    write_json,
    write_text_atomic,
    write_tree_csv,
)
from .mst import build_mst_kruskal, tree_total_length
from .stats import (
    degrees,
    edge_lengths,
    extract_branches,
    histogram,
    log_normalized_lengths,
    summarize,
)
from .svg import render_histograms_svg, render_tree_svg

_DEFAULT_NBINS = 50


def _out_base(path_arg: str | None) -> Path:
    if path_arg:
        return Path(path_arg)
    return Path(os.environ.get("SPANTREE_OUTPUT_DIR", "."))


def _ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _auto_range(values: list[tuple[float, float]]) -> tuple[float, float]:
    finite = [v for v, _ in values if np.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return lo, hi + 1e-9 * span


def _stat_histogram(values, spec: dict | None, integer_valued: bool = False):
    if spec:
        return histogram(
            values,
            float(spec["lo"]),
            float(spec["hi"]),
            int(spec["nbins"]),
            bool(spec.get("overflow", True)),
        )
    if integer_valued:
        top = max(int(v) for v, _ in values)
        return histogram(values, 0.5, top + 0.5, top, overflow=False)
    lo, hi = _auto_range(values)
    return histogram(values, lo, hi, _DEFAULT_NBINS, overflow=True)


def _region_weight_from_config(section: dict) -> tuple[RegionWeight, tuple[str, ...]]:
    box = {}
    for feature, bounds in section["box"].items():
        key: int | str = int(feature) if str(feature).lstrip("-").isdigit() else feature
        box[key] = (bounds[0], bounds[1])
    rw = RegionWeight(
        box=box,
        inside_weight=float(section.get("inside_weight", 0.0)),
        outside_weight=float(section.get("outside_weight", 1.0)),
    )
    return rw, tuple(section.get("apply_to", ()))


# ---------------------------------------------------------------------------
# gen

def _gen_spec(args) -> GeneratorSpec:
    if args.preset:
        return preset_spec(args.preset, args.seed if args.seed is not None else 0, args.count)
    try:
        payload = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{args.spec}: cannot load generator spec: {exc}") from exc
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.count is not None:
        payload["count"] = args.count
    return GeneratorSpec.from_dict(payload)


def _cmd_gen(args) -> int:
    try:
        spec = _gen_spec(args)
        ps = generate(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generator spec: {exc}") from exc
    cfg = {"command": "gen", "spec": spec.to_dict()}
    out = _out_base(args.output)
    if out.is_dir():
        out = out / f"{args.preset or spec.kind}.csv"
    write_events(ps, out, provenance_line(config_hash(cfg), spec.seed))
    print(f"wrote {len(ps)} events ({ps.dimension} features) to {out}")
    return 0


# ---------------------------------------------------------------------------
# build / stats

def _load_events(path: str, rescale: str) -> PointSet:
    ps = read_events(path)
    if rescale != "none":
        ps, _ = rescale_features(ps, rescale)
    return ps


def _cmd_build(args) -> int:
    ps = _load_events(args.events, args.rescale)
    tree = build_mst_kruskal(ps)
    cfg = {"command": "build", "events": file_fingerprint(args.events), "rescale": args.rescale}
    out = _out_base(args.output)
    if out.is_dir():
        out = out / "tree.csv"
    write_tree_csv(tree, out, provenance_line(config_hash(cfg)))
    print(f"wrote tree with {tree.edge_count} edges, total length {tree_total_length(tree):.6g}")
    return 0


def _cmd_stats(args) -> int:
    ps = _load_events(args.events, args.rescale)
    hist_specs = {}
    statistics = ALL_STATISTICS
    region_weights = None
    if args.config:
        config = RunConfig.load(args.config)
        hist_specs = config.histogram_specs
        statistics = config.statistics
        region_weights = config.region_weights
    if region_weights:
        rw, _ = _region_weight_from_config(region_weights)
        ps = apply_region_weights(ps, rw)
    tree = build_mst_kruskal(ps)

    cfg = {
        "command": "stats",
        "events": file_fingerprint(args.events),
        "rescale": args.rescale,
        "statistics": list(statistics),
        "histogram_specs": hist_specs,
        "region_weights": region_weights,
    }
    prov = provenance_line(config_hash(cfg))
    outdir = _ensure_dir(_out_base(args.output))

    write_tree_csv(tree, outdir / "tree.csv", prov)
    stat_values = {
        "edge_length": lambda: edge_lengths(tree),
        "log_norm_length": lambda: log_normalized_lengths(tree),
        "degree": lambda: [(float(d), w) for d, w in degrees(tree)],
        "log_branch_length": lambda: [
            (float(np.log(b.length)), b.weight) for b in extract_branches(tree) if b.length > 0
        ],
    }
    for name in statistics:
        values = stat_values[name]()
        h = _stat_histogram(values, hist_specs.get(name), integer_valued=(name == "degree"))
        write_histogram_csv(h, outdir / f"hist_{name}.csv", prov)

    summary = summarize(tree)
    write_json(
        {
            "version": __version__,
            "config": config_hash(cfg),
            "vertex_count": len(ps),
            "edge_count": summary.edge_count,
            "total_length": tree_total_length(tree),
            "mean_edge_length": summary.mean_edge_length,
            "mean_log_norm_length": summary.mean_log_norm_length,
            "degree_counts": {str(k): v for k, v in sorted(summary.degree_counts.items())},
            "branch_count": summary.branch_count,
        },
        outdir / "summary.json",
    )
    print(f"wrote statistics for {len(ps)} events to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _write_comparison(outdir: Path, tag: str, result, hist_specs, prov: str) -> None:
    lines = [prov, "vertex,connection_length,connection_ratio,weight"]
    ratios = result.connection_ratio
    for i in range(result.vertex_indices.size):
        lines.append(
            f"{int(result.vertex_indices[i])},{float(result.connection_length[i])!r},"
            f"{float(ratios[i])!r},{float(result.weights[i])!r}"
        )
    write_text_atomic(outdir / f"comparison_{tag}.csv", "\n".join(lines) + "\n")

    h_c = _stat_histogram(result.length_pairs(), hist_specs.get("connection_length"))
    write_histogram_csv(h_c, outdir / f"hist_connection_length_{tag}.csv", prov)
    finite_ratios = [(v, w) for v, w in result.ratio_pairs() if np.isfinite(v)]
    h_r = _stat_histogram(finite_ratios or [(0.0, 0.0)], hist_specs.get("connection_ratio"))
    write_histogram_csv(h_r, outdir / f"hist_connection_ratio_{tag}.csv", prov)


def _cmd_compare(args) -> int:
    ps_a = _load_events(args.subject, args.rescale)
    ps_b = _load_events(args.reference, args.rescale)

    hist_specs = {}
    region_weights = None
    if args.config:
        config = RunConfig.load(args.config)
        hist_specs = config.histogram_specs
        region_weights = config.region_weights
    if region_weights:
        rw, _ = _region_weight_from_config(region_weights)
        ps_a = apply_region_weights(ps_a, rw)
        ps_b = apply_region_weights(ps_b, rw)
    tree_a = build_mst_kruskal(ps_a)
    tree_b = build_mst_kruskal(ps_b)

    cfg = {
        "command": "compare",
        "subject": file_fingerprint(args.subject),
        "reference": file_fingerprint(args.reference),
        "k": args.k,
        "edge_pool": args.pool,
        "both": args.both,
        "rescale": args.rescale,
        "histogram_specs": hist_specs,
        "region_weights": region_weights,
    }
    prov = provenance_line(config_hash(cfg))
    outdir = _ensure_dir(_out_base(args.output))

    forward = connection_ratios(tree_a, tree_b, k=args.k, edge_pool=args.pool)
    _write_comparison(outdir, "subject_vs_reference", forward, hist_specs, prov)
    if args.both:
        backward = connection_ratios(tree_b, tree_a, k=args.k, edge_pool=args.pool)
        _write_comparison(outdir, "reference_vs_subject", backward, hist_specs, prov)
    print(f"wrote comparison tables to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# fit

def _resolve_input(spec: InputSpec, master_seed: int, index: int) -> PointSet:
    if spec.file is not None:
        return read_events(spec.file, spec.filters)
    if spec.generator is not None:
        return generate(spec.generator)
    two = spec.two_component

    def component(entry: dict) -> GeneratorSpec:
        # count and seed are supplied by the mixture draw itself
        return GeneratorSpec.from_dict({"count": 1, "seed": 0, **entry})

    seed = int(two.get("seed", master_seed + 7919 * (index + 1)))
    return gen_two_component(
        int(two["count"]),
        float(two["alpha_true"]),
        component(two["background"]),
        component(two["signal"]),
        seed,
    )


def _cmd_fit(args) -> int:
    config = RunConfig.load(args.config)
    if args.seed is not None:
        config = RunConfig.from_dict({**config.to_dict(), "seed": args.seed})
    if args.mode is not None:
        payload = config.to_dict()
        payload["fit"]["mode"] = args.mode
        config = RunConfig.from_dict(payload)
    if config.fit is None:
        raise ConfigError("run configuration has no fit section")

    hashed = config.to_dict()
    hashed.pop("output_dir", None)
    for entry in hashed["inputs"].values():
        if "file" in entry:
            entry["file"] = file_fingerprint(entry["file"])
    cfg_hash = config_hash(hashed)
    prov = provenance_line(cfg_hash, config.seed)
    outdir = _ensure_dir(_out_base(args.output or config.output_dir))
    write_json({**config.to_dict(), "config": cfg_hash}, outdir / "effective_config.json")

    fit = config.fit
    samples: dict[str, PointSet] = {}
    for i, role in enumerate((fit.background, fit.signal, fit.observed)):
        samples[role] = _resolve_input(config.inputs[role], config.seed, i)

    if config.region_weights:
        rw, apply_to = _region_weight_from_config(config.region_weights)
        targets = apply_to or tuple(samples)
        for role in targets:
            if role in samples:
                samples[role] = apply_region_weights(samples[role], rw)

    background = samples[fit.background]
    signal = samples[fit.signal]
    observed = samples[fit.observed]

    binning = GridBinning.from_dict(fit.binning)
    model = BinnedModel.from_samples(background, signal, observed, binning)

    baseline = augmented = None
    calibration = None
    mu_obs = None
    if fit.mode in ("baseline", "both"):
        baseline = fit_alpha(model, None, fit.alpha_grid)
    if fit.mode in ("augmented", "both"):
        calibration = calibrate_mu_vs_alpha(
            background,
            signal,
            fit.calibration_alphas,
            fit.calibration_trials,
            config.seed,
            fit.calibration_count,
        )
        mu_obs = observed_mu(observed)
        augmented = fit_alpha(model, calibration.constraint(mu_obs), fit.alpha_grid)

    curve_lines = [prov]
    header = ["alpha"]
    if baseline is not None:
        header.append("q_baseline")
    if augmented is not None:
        header.append("q_augmented")
    curve_lines.append(",".join(header))
    grid = (baseline or augmented).q_curve[:, 0]
    for i, a in enumerate(grid):
        row = [repr(float(a))]
        if baseline is not None:
            row.append(repr(float(baseline.q_curve[i, 1])))
        if augmented is not None:
            row.append(repr(float(augmented.q_curve[i, 1])))
        curve_lines.append(",".join(row))
    write_text_atomic(outdir / "q_curve.csv", "\n".join(curve_lines) + "\n")

    result: dict = {"version": __version__, "config": cfg_hash, "mode": fit.mode}
    if baseline is not None:
        result["baseline"] = {
            "alpha_hat": baseline.alpha_hat,
            "sigma_alpha": baseline.sigma_alpha,
            "q_min": baseline.q_min,
        }
    if augmented is not None:
        result["augmented"] = {
            "alpha_hat": augmented.alpha_hat,
            "sigma_alpha": augmented.sigma_alpha,
            "q_min": augmented.q_min,
        }
        result["calibration"] = {
            "slope": calibration.slope,
            "intercept": calibration.intercept,
            "slope_stderr": calibration.slope_stderr,
            "sigma_l": calibration.sigma_l,
            "mu_obs": mu_obs,
        }
    write_json(result, outdir / "fit_result.json")

    for mode_name, res in (("baseline", baseline), ("augmented", augmented)):
        if res is not None:
            print(
                f"{mode_name}: alpha_hat={res.alpha_hat:.6f} "
                f"sigma_alpha={res.sigma_alpha:.6f}"
            )
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
    ps = read_events(args.events)
    ax, ay = _parse_axes(args.axes, ps)
    if args.tree:
        us, vs, _, _ = read_tree_csv(args.tree)
        pairs = list(zip(us.tolist(), vs.tolist()))
    else:
        tree = build_mst_kruskal(ps)
        pairs = list(zip(tree.edge_u.tolist(), tree.edge_v.tolist()))
    cfg = {
        "command": "plot-tree",
        "events": file_fingerprint(args.events),
        "tree": file_fingerprint(args.tree) if args.tree else None,
        "axes": args.axes,
    }
    coords = ps.coords[:, (ax, ay)]
    names = ps.feature_names or tuple(f"x{i}" for i in range(ps.dimension))
    svg = render_tree_svg(
        coords,
        pairs,
        labels=ps.labels,
        title=f"{names[ax]} vs {names[ay]}",
        comment=provenance_line(config_hash(cfg)),
    )
    out = _out_base(args.output)
    if out.is_dir():
        out = out / "tree.svg"
    write_text_atomic(out, svg)
    print(f"wrote {out}")
    return 0


def _cmd_plot_hist(args) -> int:
    named = [(Path(p).stem, read_histogram_csv(p)) for p in args.histograms]
    cfg = {"command": "plot-hist", "histograms": [file_fingerprint(p) for p in args.histograms]}
    svg = render_histograms_svg(named, comment=provenance_line(config_hash(cfg)))
    out = _out_base(args.output)
    if out.is_dir():
        out = out / "histogram.svg"
    write_text_atomic(out, svg)
    print(f"wrote {out}")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EventFileError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpanTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
