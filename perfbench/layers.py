"""Which spantree calls the traced run wraps, and the per-layer metrics from them.

Layers are the package modules. Each entry of ``WRAPS`` names a call site
(the module whose global is rebound), the function, its layer and the
counter that reads counts from the call's arguments and result. Both the
``cli`` and ``analysis`` call sites are wrapped, so calls made inside the
calibration nest under it. ``geometry`` work is counted in the ``io`` and
``generators`` spans that do it.

This module does not import spantree; the traced process applies the table.
"""

from __future__ import annotations

import os

from tracer import Span, ancestors, self_times

LAYERS = ("cli", "io", "generators", "mst", "stats", "compare", "analysis")
ROOT_SPAN = "cli.main"


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(kwargs.get("path", args[1]))}


def _rows(args, kwargs, result):
    return {"rows_read": len(result)}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _build(args, kwargs, result):
    m = len(args[0])
    return {"points": m, "pairs_computed": m * (m - 1) // 2}


def _entries(args, kwargs, result):
    return {"histogram_entries": len(args[0])}


def _ratios(args, kwargs, result):
    subject, reference = args[0], args[1]
    pool = subject if kwargs.get("edge_pool", "reference") == "subject" else reference
    queries = subject.vertex_count
    # the exhaustive path: every query against every reference vertex and pool edge
    return {"queries": queries,
            "distances_computed": queries * (reference.vertex_count + pool.edge_count)}


WRAPS = (
    ("cli", "read_events", "io", _rows),
    ("cli", "write_events", "io", _bytes_written),
    ("cli", "write_tree_csv", "io", _bytes_written),
    ("cli", "write_histogram_csv", "io", _bytes_written),
    ("cli", "write_json", "io", _bytes_written),
    ("cli", "generate", "generators", _points),
    ("cli", "gen_two_component", "generators", _points),
    ("cli", "build_mst_kruskal", "mst", _build),
    ("analysis", "build_mst_kruskal", "mst", _build),
    ("cli", "tree_total_length", "mst", None),
    ("cli", "edge_lengths", "stats", None),
    ("cli", "log_normalized_lengths", "stats", None),
    ("cli", "degrees", "stats", None),
    ("cli", "extract_branches", "stats", None),
    ("cli", "summarize", "stats", None),
    ("analysis", "mean_log_norm_length", "stats", None),
    ("cli", "histogram", "stats", _entries),
    ("cli", "connection_ratios", "compare", _ratios),
    ("cli", "calibrate_mu_vs_alpha", "analysis", None),
    ("cli", "observed_mu", "analysis", None),
    ("analysis", "observed_mu", "analysis", None),
    ("analysis", "_resample_mixture", "analysis", None),
    ("cli", "fit_alpha", "analysis", None),
)

# name -> unit; every one is reported by a traced run, in this order
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.read_events_s": "s",
    "io.rows_read": "count",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "generators.generate_s": "s",
    "generators.points": "count",
    "mst.build_s": "s",
    "mst.builds": "count",
    "mst.points": "count",
    "mst.pairs_computed": "count",
    "mst.candidates_needed": "count",
    "stats.tree_s": "s",
    "stats.histogram_s": "s",
    "stats.histogram_entries": "count",
    "compare.ratios_s": "s",
    "compare.queries": "count",
    "compare.distances_computed": "count",
    "analysis.calibrate_self_s": "s",
    "analysis.resample_s": "s",
    "analysis.fit_alpha_s": "s",
    "analysis.calibration_trees": "count",
    "process.cpu_s": "s",
    "trace.command_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# per-layer time metrics: name -> the span names whose self times it sums
_TIMED = {
    "io.read_events_s": ("io.read_events",),
    "io.write_s": ("io.write_events", "io.write_tree_csv", "io.write_histogram_csv",
                   "io.write_json"),
    "generators.generate_s": ("generators.generate", "generators.gen_two_component"),
    "mst.build_s": ("mst.build_mst_kruskal",),
    "stats.tree_s": ("stats.edge_lengths", "stats.log_normalized_lengths", "stats.degrees",
                     "stats.extract_branches", "stats.summarize", "stats.mean_log_norm_length"),
    "stats.histogram_s": ("stats.histogram",),
    "compare.ratios_s": ("compare.connection_ratios",),
    "analysis.calibrate_self_s": ("analysis.calibrate_mu_vs_alpha",),
    "analysis.resample_s": ("analysis._resample_mixture",),
    "analysis.fit_alpha_s": ("analysis.fit_alpha",),
}

# per-layer counts: name -> (span layer, count key)
_COUNTED = {
    "io.rows_read": ("io", "rows_read"),
    "io.bytes_written": ("io", "bytes_written"),
    "generators.points": ("generators", "points"),
    "mst.points": ("mst", "points"),
    "mst.pairs_computed": ("mst", "pairs_computed"),
    "stats.histogram_entries": ("stats", "histogram_entries"),
    "compare.queries": ("compare", "queries"),
    "compare.distances_computed": ("compare", "distances_computed"),
}


def root_span(spans: list[Span]) -> Span:
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != ROOT_SPAN:
        raise ValueError(f"expected one {ROOT_SPAN} root span, found {[s.name for s in roots]}")
    return roots[0]


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per layer: summed self time and number of calls (the root is cli's one call)."""
    own = self_times(spans)
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for s in spans:
        totals[s.layer][0] += own[s.id]
        totals[s.layer][1] += 1
    return {layer: (t, n) for layer, (t, n) in totals.items()}


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics one traced command's spans give."""
    own = self_times(spans)
    root = root_span(spans)
    out: dict[str, float] = {}
    for name, span_names in _TIMED.items():
        out[name] = sum(own[s.id] for s in spans if s.name in span_names)
    for name, (layer, key) in _COUNTED.items():
        out[name] = sum(s.counts.get(key, 0) for s in spans if s.layer == layer)
    builds = [s for s in spans if s.name == "mst.build_mst_kruskal"]
    out["mst.builds"] = len(builds)
    out["analysis.calibration_trees"] = sum(
        any(a.name == "analysis.calibrate_mu_vs_alpha" for a in ancestors(spans, s))
        for s in builds
    )
    out["cli.self_s"] = own[root.id]
    out["trace.command_s"] = root.duration
    out["trace.coverage"] = 1.0 - own[root.id] / root.duration
    return out
