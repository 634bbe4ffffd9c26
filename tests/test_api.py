import spantree

PUBLIC_API = [
    "__version__",
    "AffineRescale",
    "BinnedModel",
    "Branch",
    "CalibrationResult",
    "ComparisonResult",
    "ConfigError",
    "DegenerateStatistic",
    "DimensionMismatch",
    "EventFileError",
    "FitError",
    "FitResult",
    "GeneratorSpec",
    "GridBinning",
    "Histogram",
    "InputTooLarge",
    "MstConstraint",
    "PointSet",
    "RegionWeight",
    "SpanTreeError",
    "Tree",
    "TreeStatsSummary",
    "apply_region_weights",
    "build_mst_kruskal",
    "calibrate_mu_vs_alpha",
    "connection_lengths",
    "connection_ratios",
    "degrees",
    "edge_lengths",
    "extract_branches",
    "fit_alpha",
    "gen_disc",
    "gen_disc3d",
    "gen_grid",
    "gen_quadratic_grid",
    "gen_strip",
    "gen_two_component",
    "generate",
    "histogram",
    "log_normalized_lengths",
    "mean_edge_length",
    "mean_log_norm_length",
    "normalize_to",
    "normalized_lengths",
    "observed_mu",
    "preset_spec",
    "rescale_features",
    "sample_1d",
    "summarize",
    "tree_total_length",
]


def test_public_api_is_pinned():
    assert spantree.__all__ == PUBLIC_API


def test_star_import_gives_exactly_the_public_api():
    namespace: dict = {}
    exec("from spantree import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_API)
