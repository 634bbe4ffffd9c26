"""Euclidean minimal spanning tree statistics for event samples.

Build exact minimal spanning trees over weighted point sets, compute
single-tree statistics (edge lengths, normalized lengths, degrees, branch
decomposition), compare two trees through connection lengths and ratios,
generate the seeded synthetic samples used throughout the tests, and
estimate a signal fraction with a binned likelihood optionally augmented
by the calibrated tree statistic.

Each public name loads its submodule on first use, so ``import spantree``
loads no numpy and a command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SOURCES = {
    "analysis": ("BinnedModel", "CalibrationResult", "FitResult", "GridBinning", "MstConstraint",
                 "RegionWeight", "apply_region_weights", "calibrate_mu_vs_alpha", "fit_alpha",
                 "observed_mu"),
    "compare": ("ComparisonResult", "connection_lengths", "connection_ratios"),
    "errors": ("ConfigError", "DegenerateStatistic", "DimensionMismatch", "EventFileError",
               "FitError", "SpanTreeError"),
    "generators": ("GeneratorSpec", "gen_disc", "gen_disc3d", "gen_grid", "gen_quadratic_grid",
                   "gen_strip", "gen_two_component", "generate", "preset_spec", "sample_1d"),
    "geometry": ("PointSet", "rescale_features"),
    "mst": ("Tree", "build_mst_kruskal", "tree_total_length"),
    "pipeline": ("load_sample", "run_compare", "run_fit", "run_stats"),
    "stats": ("Histogram", "TreeStatsSummary", "degrees", "edge_lengths", "extract_branches",
              "histogram", "log_normalized_lengths", "mean_edge_length", "mean_log_norm_length",
              "normalized_lengths", "summarize"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
