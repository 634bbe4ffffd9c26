"""The pipelines behind ``stats``, ``compare`` and ``fit``, callable without the CLI.

Each ``run_*`` computes every value its command writes and returns it as a
frozen result; the command then only hashes, writes and echoes. Samples
read from event files come from :func:`load_sample`, one ``PointSet`` each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import ConfigError, DegenerateStatistic
from .geometry import PointSet
from .io import InputSpec, RunConfig, filter_events, load_sample
from .mst import Tree, build_mst_kruskal, tree_total_length
from .stats import STATISTICS, Histogram, TreeStatsSummary, histogram, summarize

if TYPE_CHECKING:
    from .analysis import CalibrationResult, FitResult
    from .compare import ComparisonResult


@dataclass(frozen=True)
class StatsRun:
    """What ``stats`` writes: the tree, one histogram per statistic, and the summary."""

    tree: Tree
    histograms: Mapping[str, Histogram]
    summary: TreeStatsSummary
    total_length: float


def run_stats(ps: PointSet, config: RunConfig | None = None) -> StatsRun:
    """The tree of ``ps``, its summary, and a histogram of each of ``config.statistics``."""
    config = config or RunConfig()
    tree = build_mst_kruskal(ps)
    values = {name: STATISTICS[name](tree) for name in config.statistics}
    hists = {name: histogram(v, w, *config.binning(name, v)) for name, (v, w) in values.items()}
    return StatsRun(tree, hists, summarize(tree), tree_total_length(tree))


@dataclass(frozen=True)
class Comparison:
    """One direction of ``compare``: its tag, the per-vertex result and its two histograms."""

    tag: str
    result: ComparisonResult
    lengths: Histogram
    ratios: Histogram


def _compare(tag: str, subject: Tree, reference: Tree, k: int, pool: str, config) -> Comparison:
    from .compare import connection_ratios

    result = connection_ratios(subject, reference, k=k, edge_pool=pool)
    lengths, ratios, weights = result.connection_length, result.connection_ratio, result.weights
    h_c = histogram(lengths, weights, *config.binning("connection_length", lengths))
    finite = np.isfinite(ratios)
    # with no finite ratio, one zero-weight entry keeps the automatic range defined
    ratios, weights = (ratios[finite], weights[finite]) if finite.any() else (np.zeros(1),) * 2
    h_r = histogram(ratios, weights, *config.binning("connection_ratio", ratios))
    return Comparison(tag, result, h_c, h_r)


def run_compare(subject: PointSet, reference: PointSet, k: int = 5, pool: str = "reference",
                both: bool = False, config: RunConfig | None = None) -> tuple[Comparison, ...]:
    """``subject`` compared with ``reference`` over their trees, each built once,
    then, with ``both``, ``reference`` with ``subject``."""
    config = config or RunConfig()
    a, b = build_mst_kruskal(subject), build_mst_kruskal(reference)
    pairs = (("subject_vs_reference", a, b), ("reference_vs_subject", b, a))
    return tuple(_compare(t, s, r, k, pool, config) for t, s, r in pairs[: 2 if both else 1])


def resolve_input(spec: InputSpec, master_seed: int, index: int) -> PointSet:
    """The events of run-config input ``spec``, filtered; a mixture without a
    seed of its own draws with one derived from ``master_seed`` and ``index``."""
    from .generators import gen_two_component, generate

    try:
        if spec.file is not None:
            ps = load_sample(spec.file)
        elif spec.generator is not None:
            ps = generate(spec.generator)
        else:
            mix = spec.two_component
            seed = master_seed + 7919 * (index + 1) if mix.seed is None else mix.seed
            ps = gen_two_component(mix.count, mix.alpha_true, mix.background, mix.signal, seed)
        return filter_events(ps, spec.filters)
    except (TypeError, ValueError) as exc:  # a generator param's value, or a filter the events fail
        raise ConfigError(f"input {spec.name!r}: {exc}") from exc


@dataclass(frozen=True)
class FitRun:
    """What ``fit`` writes: the effective config, the fit of each mode it ran,
    and, for the augmented fit, the calibration and the observed statistic."""

    config: RunConfig
    baseline: FitResult | None
    augmented: FitResult | None
    calibration: CalibrationResult | None
    mu_obs: float | None


def run_fit(config: RunConfig, seed: int | None = None, mode: str | None = None) -> FitRun:
    """The fit that ``config`` describes, with its master seed and fit mode
    replaced by ``seed`` and ``mode`` when given."""
    from .analysis import BinnedModel, GridBinning, calibrate_mu_vs_alpha, fit_alpha, observed_mu

    if config.fit is None:
        raise ConfigError("run configuration has no fit section")
    if seed is not None:
        config = replace(config, seed=seed)
    if mode is not None:
        config = replace(config, fit=replace(config.fit, mode=mode))
    fit = config.fit
    roles = enumerate((fit.background, fit.signal, fit.observed))
    # event files first, so that a filter one fails stops the fit before any draw
    roles = sorted(roles, key=lambda item: config.inputs[item[1]].file is None)
    samples = {role: resolve_input(config.inputs[role], config.seed, i) for i, role in roles}
    # weighted once every input is resolved, so a failing input stops the fit first
    for role, ps in samples.items():
        try:
            weights = config.weigh(ps.coords, ps.weights, ps.feature_names, role)
        except DegenerateStatistic as exc:  # weights that overflow times their region factors
            raise DegenerateStatistic(f"input {role!r}: {exc}") from None
        samples[role] = ps if weights is ps.weights else replace(ps, weights=weights)
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
                background, signal, fit.calibration_alphas, fit.calibration_trials, config.seed,
                fit.calibration_count)
        except ValueError as exc:  # a calibration count above a component's size
            raise ConfigError(f"fit calibration: {exc}") from exc
        mu_obs = observed_mu(observed)
        if not np.isfinite(mu_obs):
            raise DegenerateStatistic(
                f"the observed sample's statistic is {mu_obs}; coincident points "
                "make the log normalized length undefined"
            )
        augmented = fit_alpha(model, calibration.constraint(mu_obs), fit.alpha_grid)
    return FitRun(config, baseline, augmented, calibration, mu_obs)
