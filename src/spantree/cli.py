"""Command-line interface.

Subcommands: ``gen`` (synthetic samples), ``build`` (tree file),
``stats`` (tree plus statistic histograms and a summary), ``compare``
(connection lengths/ratios between two samples), ``fit`` (signal-fraction
fit driven by a run config), and ``plot`` (SVG renderings).

Every output embeds a hash of the effective configuration, and reruns
with identical configuration produce byte-identical outputs. Exit codes:
0 success, 2 parse/config error, 3 numeric/domain error, 4 I/O error.
Outputs go to ``-o``, else a run config's ``output_dir``, else
``SPANTREE_OUTPUT_DIR`` when set, else the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
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
from .errors import ConfigError, DegenerateStatistic, EventFileError, SpanTreeError
from .generators import PRESET_NAMES, GeneratorSpec, gen_two_component, generate, preset_spec
from .geometry import PointSet, rescale_features
from .io import (
    InputSpec,
    RunConfig,
    config_hash,
    file_fingerprint,
    filter_events,
    histogram_range,
    provenance_line,
    read_events,
    read_histogram_csv,
    read_tree_csv,
    write_events,
    write_histogram_csv,
    write_json,
    write_table,
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
    return Path(path_arg or os.environ.get("SPANTREE_OUTPUT_DIR", "."))


def _ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _auto_range(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if not finite.size:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi + 1e-9 * (hi - lo)


def _stat_histogram(values, weights, name: str, specs: dict, integer_valued: bool = False):
    if name in specs:
        return histogram(values, weights, *histogram_range(name, specs[name]))
    if integer_valued:
        top = int(values.max())
        return histogram(values, weights, 0.5, top + 0.5, top, overflow=False)
    lo, hi = _auto_range(values)
    return histogram(values, weights, lo, hi, _DEFAULT_NBINS, overflow=True)


def _log_branch_lengths(lengths, weights) -> tuple[np.ndarray, np.ndarray]:
    keep = lengths > 0
    return np.log(lengths[keep]), weights[keep]


def _weighted(ps: PointSet, rw: RegionWeight) -> PointSet:
    try:
        return apply_region_weights(ps, rw)
    except ValueError as exc:  # a box feature the events lack
        raise ConfigError(f"region_weights: {exc}") from exc


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
        try:
            ps = rescale_features(ps, rescale)
        except ValueError as exc:
            raise EventFileError(f"{path}: {exc}") from exc
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
    config = RunConfig.load(args.config) if args.config else RunConfig(seed=0, inputs={})
    hist_specs, statistics = config.histogram_specs, config.statistics
    if config.region_weights:
        ps = _weighted(ps, config.region_weight()[0])
    tree = build_mst_kruskal(ps)

    cfg = {
        "command": "stats",
        "events": file_fingerprint(args.events),
        "rescale": args.rescale,
        "statistics": list(statistics),
        "histogram_specs": hist_specs,
        "region_weights": config.region_weights,
    }
    prov = provenance_line(config_hash(cfg))
    stat_values = {
        "edge_length": lambda: edge_lengths(tree),
        "log_norm_length": lambda: log_normalized_lengths(tree),
        "degree": lambda: degrees(tree),
        "log_branch_length": lambda: _log_branch_lengths(*extract_branches(tree)),
    }
    hists = {name: _stat_histogram(*stat_values[name](), name, hist_specs, name == "degree")
             for name in statistics}
    summary = summarize(tree)
    # every output is computed before the first is written, so a failed run writes none
    outdir = _ensure_dir(_out_base(args.output or config.output_dir))
    write_tree_csv(tree, outdir / "tree.csv", prov)
    for name, h in hists.items():
        write_histogram_csv(h, outdir / f"hist_{name}.csv", prov)
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

def _comparison_tables(tag, subject, reference, args, hist_specs) -> tuple:
    """A comparison's tag, table and two histograms, computed but not written."""
    result = connection_ratios(subject, reference, k=args.k, edge_pool=args.pool)
    header = ("vertex", "connection_length", "connection_ratio", "weight")
    ratios, weights = result.connection_ratio, result.weights
    columns = (np.arange(len(ratios)), result.connection_length, ratios, weights)
    h_c = _stat_histogram(result.connection_length, weights, "connection_length", hist_specs)
    finite = np.isfinite(ratios)
    # with no finite ratio, one zero-weight entry keeps the automatic range defined
    ratios, weights = (ratios[finite], weights[finite]) if finite.any() else (np.zeros(1),) * 2
    h_r = _stat_histogram(ratios, weights, "connection_ratio", hist_specs)
    return tag, header, columns, h_c, h_r


def _cmd_compare(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    ps_a = _load_events(args.subject, args.rescale)
    ps_b = _load_events(args.reference, args.rescale)

    config = RunConfig.load(args.config) if args.config else RunConfig(seed=0, inputs={})
    hist_specs = config.histogram_specs
    if config.region_weights:
        rw, _ = config.region_weight()
        ps_a = _weighted(ps_a, rw)
        ps_b = _weighted(ps_b, rw)
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
        "region_weights": config.region_weights,
    }
    prov = provenance_line(config_hash(cfg))
    tables = [_comparison_tables("subject_vs_reference", tree_a, tree_b, args, hist_specs)]
    if args.both:
        tables.append(_comparison_tables("reference_vs_subject", tree_b, tree_a, args, hist_specs))
    # both directions are computed before the first file is written, so a failed run writes none
    outdir = _ensure_dir(_out_base(args.output or config.output_dir))
    for tag, header, columns, h_c, h_r in tables:
        write_table(outdir / f"comparison_{tag}.csv", [prov], header, columns)
        write_histogram_csv(h_c, outdir / f"hist_connection_length_{tag}.csv", prov)
        write_histogram_csv(h_r, outdir / f"hist_connection_ratio_{tag}.csv", prov)
    print(f"wrote comparison tables to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# fit

def _resolve_input(spec: InputSpec, master_seed: int, index: int) -> PointSet:
    try:
        if spec.file is not None:
            ps = read_events(spec.file)
        elif spec.generator is not None:
            ps = generate(spec.generator)
        else:
            mix = spec.two_component
            seed = master_seed + 7919 * (index + 1) if mix.seed is None else mix.seed
            ps = gen_two_component(mix.count, mix.alpha_true, mix.background, mix.signal, seed)
        return filter_events(ps, spec.filters)
    except (TypeError, ValueError) as exc:  # a generator param's value, or a filter the events fail
        raise ConfigError(f"input {spec.name!r}: {exc}") from exc


def _cmd_fit(args) -> int:
    config = RunConfig.load(args.config)
    if config.fit is None:
        raise ConfigError("run configuration has no fit section")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.mode is not None:
        config = replace(config, fit=replace(config.fit, mode=args.mode))

    hashed = config.to_dict()
    hashed.pop("output_dir", None)
    for entry in hashed["inputs"].values():
        if "file" in entry:
            entry["file"] = file_fingerprint(entry["file"])
    cfg_hash = config_hash(hashed)
    prov = provenance_line(cfg_hash, config.seed)

    fit = config.fit
    samples: dict[str, PointSet] = {}
    roles = list(enumerate((fit.background, fit.signal, fit.observed)))
    # event files first, so that a filter one fails stops the fit before any draw
    roles.sort(key=lambda item: config.inputs[item[1]].file is None)
    for i, role in roles:
        samples[role] = _resolve_input(config.inputs[role], config.seed, i)

    if config.region_weights:
        rw, apply_to = config.region_weight()
        for role in apply_to or tuple(samples):
            if role in samples:
                samples[role] = _weighted(samples[role], rw)

    background, signal, observed = (samples[r] for r in (fit.background, fit.signal, fit.observed))

    try:
        binning = GridBinning.from_dict(fit.binning)
        model = BinnedModel.from_samples(background, signal, observed, binning)
    except ValueError as exc:  # a binning feature the samples lack, or bins they miss
        raise ConfigError(f"fit binning: {exc}") from exc

    baseline = augmented = calibration = mu_obs = None
    if fit.mode in ("baseline", "both"):
        baseline = fit_alpha(model, None, fit.alpha_grid)
    if fit.mode in ("augmented", "both"):
        try:
            calibration = calibrate_mu_vs_alpha(
                background,
                signal,
                fit.calibration_alphas,
                fit.calibration_trials,
                config.seed,
                fit.calibration_count,
            )
        except ValueError as exc:  # a calibration count above a component's size
            raise ConfigError(f"fit calibration: {exc}") from exc
        mu_obs = observed_mu(observed)
        if not np.isfinite(mu_obs):
            raise DegenerateStatistic(
                f"the observed sample's statistic is {mu_obs}; coincident points "
                "make the log normalized length undefined"
            )
        augmented = fit_alpha(model, calibration.constraint(mu_obs), fit.alpha_grid)

    outdir = _ensure_dir(_out_base(args.output or config.output_dir))
    write_json({**config.to_dict(), "config": cfg_hash}, outdir / "effective_config.json")
    fits = {n: r for n, r in (("baseline", baseline), ("augmented", augmented)) if r is not None}
    curves = [r.q_curve for r in fits.values()]
    columns = [curves[0][:, 0]] + [curve[:, 1] for curve in curves]
    write_table(outdir / "q_curve.csv", [prov], ["alpha"] + [f"q_{n}" for n in fits], columns)

    result: dict = {"version": __version__, "config": cfg_hash, "mode": fit.mode}
    for name, r in fits.items():
        result[name] = {"alpha_hat": r.alpha_hat, "sigma_alpha": r.sigma_alpha, "q_min": r.q_min}
    if augmented is not None:
        result["calibration"] = {
            "slope": calibration.slope,
            "intercept": calibration.intercept,
            "slope_stderr": calibration.slope_stderr,
            "sigma_l": calibration.sigma_l,
            "mu_obs": mu_obs,
        }
    write_json(result, outdir / "fit_result.json")

    for name, res in fits.items():
        print(f"{name}: alpha_hat={res.alpha_hat:.6f} sigma_alpha={res.sigma_alpha:.6f}")
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
        zip(us.tolist(), vs.tolist()),
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
