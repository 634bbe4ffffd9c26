"""Euclidean minimal spanning tree statistics for event samples.

Build exact minimal spanning trees over weighted point sets, compute
single-tree statistics (edge lengths, normalized lengths, degrees, branch
decomposition), compare two trees through connection lengths and ratios,
generate the seeded synthetic samples used throughout the tests, and
estimate a signal fraction with a binned likelihood optionally augmented
by the calibrated tree statistic.
"""

__version__ = "0.1.0"

from .analysis import (
    BinnedModel,
    CalibrationResult,
    FitResult,
    GridBinning,
    MstConstraint,
    RegionWeight,
    apply_region_weights,
    calibrate_mu_vs_alpha,
    fit_alpha,
    observed_mu,
)
from .compare import ComparisonResult, connection_lengths, connection_ratios
from .errors import (
    ConfigError,
    DegenerateStatistic,
    DimensionMismatch,
    EventFileError,
    FitError,
    SpanTreeError,
)
from .generators import (
    GeneratorSpec,
    gen_disc,
    gen_disc3d,
    gen_grid,
    gen_quadratic_grid,
    gen_strip,
    gen_two_component,
    generate,
    preset_spec,
    sample_1d,
)
from .geometry import PointSet, rescale_features
from .mst import Tree, build_mst_kruskal, tree_total_length
from .pipeline import load_sample, run_compare, run_fit, run_stats
from .stats import (
    Histogram,
    TreeStatsSummary,
    degrees,
    edge_lengths,
    extract_branches,
    histogram,
    log_normalized_lengths,
    mean_edge_length,
    mean_log_norm_length,
    normalized_lengths,
    summarize,
)

__all__ = [
    "__version__",
    "BinnedModel",
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
    "load_sample",
    "log_normalized_lengths",
    "mean_edge_length",
    "mean_log_norm_length",
    "normalized_lengths",
    "observed_mu",
    "preset_spec",
    "rescale_features",
    "run_compare",
    "run_fit",
    "run_stats",
    "sample_1d",
    "summarize",
    "tree_total_length",
]
