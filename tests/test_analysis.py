import contextlib
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import calibration_mu_serial, edge_set, fit_alpha_scipy
from spantree import (
    BinnedModel,
    ConfigError,
    DegenerateStatistic,
    FitError,
    GeneratorSpec,
    GridBinning,
    MstConstraint,
    PointSet,
    RegionWeight,
    apply_region_weights,
    build_mst_kruskal,
    calibrate_mu_vs_alpha,
    fit_alpha,
    generate,
    observed_mu,
)
from spantree import analysis
from spantree.io import RunConfig

# shared demo components: broad background disc with a denser signal disc inside
BG_SPEC = GeneratorSpec("disc", 12000, 101, 0.2, {"center": (0.0, 0.0), "radius": 20.0})
SIG_SPEC = GeneratorSpec("disc", 12000, 202, 0.2, {"center": (10.0, 4.0), "radius": 8.0})
DEMO_BINNING = GridBinning("x", "y", (-21.0, 6.0, 12.0, 21.0), (-21.0, 2.0, 21.0))


@pytest.fixture(scope="module")
def demo_samples():
    return generate(BG_SPEC), generate(SIG_SPEC)


@pytest.fixture(scope="module")
def demo_model(demo_samples):
    bg, sig = demo_samples
    b = DEMO_BINNING.weighted_counts(bg)
    s = DEMO_BINNING.weighted_counts(sig)
    return BinnedModel(b / b.sum(), s / s.sum(), np.zeros_like(b))


class TestRegionWeights:
    def _sample(self):
        coords = [[70.0, 50.0], [120.0, 20.0], [60.0, 150.0], [85.0, 99.0]]
        return PointSet(coords, feature_names=("mll", "qt"))

    def _box(self):
        return RegionWeight(
            box={"mll": (50.0, 90.0), "qt": (0.0, 100.0)}, inside_weight=0.0, outside_weight=1.0
        )

    def test_inside_box_suppressed(self):
        out = apply_region_weights(self._sample(), self._box())
        np.testing.assert_array_equal(out.weights, [0.0, 1.0, 1.0, 0.0])

    def test_strict_boundaries(self):
        ps = PointSet([[50.0, 50.0], [90.0, 50.0], [70.0, 0.0]], feature_names=("mll", "qt"))
        out = apply_region_weights(ps, self._box())
        np.testing.assert_array_equal(out.weights, [1.0, 1.0, 1.0])

    def test_open_ended_bound(self):
        rw = RegionWeight(box={"mll": (None, 100.0)}, inside_weight=0.0, outside_weight=1.0)
        ps = PointSet([[80.0, 1.0], [130.0, 1.0]], feature_names=("mll", "qt"))
        out = apply_region_weights(ps, rw)
        np.testing.assert_array_equal(out.weights, [0.0, 1.0])

    def test_no_box_hit_leaves_weights(self):
        ps = PointSet([[200.0, 300.0]], weights=[2.0], feature_names=("mll", "qt"))
        out = apply_region_weights(ps, self._box())
        np.testing.assert_array_equal(out.weights, [2.0])

    def test_edge_weight_product_rule(self):
        ps = PointSet([[70.0, 50.0], [120.0, 50.0]], feature_names=("mll", "qt"))
        tree = build_mst_kruskal(apply_region_weights(ps, self._box()))
        assert tree.edge_weights[0] == 0.0

    def test_tree_structure_unchanged(self):
        rng = np.random.default_rng(20)
        ps = PointSet(rng.random((100, 2)) * 100, feature_names=("mll", "qt"))
        weighted = apply_region_weights(ps, self._box())
        assert edge_set(build_mst_kruskal(ps)) == edge_set(build_mst_kruskal(weighted))

    def test_overflowing_product_refused(self):
        # the library and a run config refuse it alike; the library once warned and
        # raised ValueError from the PointSet it built
        ps = PointSet([[70.0, 50.0], [120.0, 20.0]], weights=[1e300, 1.0],
                      feature_names=("mll", "qt"))
        rw = {"box": {"mll": [50.0, 90.0]}, "inside_weight": 1e10}
        config = RunConfig(region_weights=rw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStatistic, match="event weights overflow"):
                apply_region_weights(ps, RegionWeight.from_dict(rw))
            with pytest.raises(DegenerateStatistic, match="event weights overflow"):
                config.weigh(ps.coords, ps.weights, ps.feature_names)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RegionWeight(box={}, inside_weight=-1.0, outside_weight=1.0)
        for bad in (math.nan, math.inf, -math.inf, float("nan")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                RegionWeight(box={}, inside_weight=bad, outside_weight=1.0)
            with pytest.raises(ValueError, match="finite and non-negative"):
                RegionWeight(box={}, inside_weight=0.0, outside_weight=bad)

    def test_string_apply_to_refused(self):
        # a string was once split into one input name per character
        with pytest.raises(ValueError, match="apply_to must be a list of input names, got 'obs'"):
            RegionWeight({"x": (0, 1)}, 0.0, 1.0, apply_to="obs")
        with pytest.raises(ConfigError, match="region_weights: apply_to must be a list"):
            RegionWeight.from_dict({"box": {"x": [0, 1]}, "apply_to": "observed"})

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_refused(self, bound):
        # a NaN bound once matched no event, and its config echo null made an open end
        for box in ({"x": (bound, 5.0)}, {"x": (None, bound)}):
            with pytest.raises(ValueError, match="box bounds must be finite or null"):
                RegionWeight(box, 0.0, 1.0)
        with pytest.raises(ConfigError, match="region_weights: box bounds must be finite"):
            RegionWeight.from_dict({"box": {"x": [bound, 5.0]}})
        assert RegionWeight({"x": (None, 5.0)}, 0.0, 1.0).box == {"x": (None, 5.0)}

    def test_hashable(self):
        rw = RegionWeight({"x": (0, 1)}, 0.0, 1.0)
        assert {rw: "box"}[rw] == "box"


class TestGridBinning:
    def test_counts_and_drops(self):
        binning = GridBinning(0, 1, (0.0, 1.0, 2.0), (0.0, 1.0))
        ps = PointSet([[0.5, 0.5], [1.5, 0.5], [5.0, 0.5], [0.5, 0.5]], weights=[1, 1, 1, 2])
        np.testing.assert_array_equal(binning.weighted_counts(ps), [3.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridBinning(0, 1, (0.0, 1.0), (0.0,))
        with pytest.raises(ValueError):
            GridBinning(0, 1, (1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
    def test_non_finite_edges_refused(self, edge):
        # b <= a is false for NaN, so a NaN edge once passed the ordering check
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            GridBinning(0, 1, (-21.0, edge, 12.0, 21.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            GridBinning(0, 1, (0.0, 1.0), (edge, 0.0) if edge < 0 else (0.0, edge))

    def test_round_trip(self):
        again = GridBinning.from_dict(DEMO_BINNING.to_dict())
        assert again == DEMO_BINNING


class TestBinnedModel:
    def test_templates_must_normalize(self):
        with pytest.raises(ValueError):
            BinnedModel(np.array([0.5, 0.4]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        # a NaN template's sum once passed as normalized
        for bad in ([math.nan, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="must sum to 1"):
                BinnedModel(bad, [0.5, 0.5], [1.0, 1.0])
            with pytest.raises(ValueError, match="must sum to 1"):
                BinnedModel([0.5, 0.5], bad, [1.0, 1.0])
        # weights whose total overflows are refused before they are divided by it
        ps = PointSet([[0.5, 0.5], [0.5, 1.5], [1.5, 0.5]], weights=[1e308, 1e308, 1.0],
                      feature_names=("x", "y"))
        binning = GridBinning("x", "y", (0.0, 1.0, 2.0), (0.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStatistic, match="overflows"):
                BinnedModel.from_samples(ps, ps, ps, binning)

    def test_template_total_overflow_refused_without_warning(self):
        # every bin holds a finite weight, but their sum overflows as numpy reduces it
        ps = PointSet([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]], weights=[1e308, 1e308, 1.0],
                      feature_names=("x", "y"))
        binning = GridBinning("x", "y", (0.0, 1.0, 2.0, 3.0), (0.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStatistic, match="total weight inside the binning overflows"):
                BinnedModel.from_samples(ps, ps, ps, binning)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            BinnedModel(np.array([1.0]), np.array([1.0]), np.array([1.0]))

    def test_from_samples_normalizes(self, demo_samples):
        bg, sig = demo_samples
        model = BinnedModel.from_samples(bg, sig, bg, DEMO_BINNING)
        assert model.background.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.signal.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.n_bins == 6


class TestMstConstraint:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            MstConstraint(0.0, 1.0, 0.0, 0.0)

    def test_line_and_penalty(self):
        c = MstConstraint(mu_obs=-0.2, slope=-0.5, intercept=-0.1, sigma_l=0.05)
        assert c.mu_at(0.2) == pytest.approx(-0.2)
        assert c.penalty(0.2) == pytest.approx(0.0)
        # mu(0.4) = -0.3, so the pull is 0.1 / 0.05 = 2 and the penalty 4
        assert c.penalty(0.4) == pytest.approx(4.0, rel=1e-12)


class TestCalibration:
    def test_identical_distributions_give_zero_slope(self):
        # two independent samples of the same distribution are
        # indistinguishable, so the calibration line is flat
        spec = {"center": (0.0, 0.0), "radius": 20.0}
        a = generate(GeneratorSpec("disc", 6000, 61, 0.2, spec))
        b = generate(GeneratorSpec("disc", 6000, 62, 0.2, spec))
        cal = calibrate_mu_vs_alpha(a, b, [0.0, 0.5, 1.0], trials=4, seed=31, count=1500)
        assert abs(cal.slope) < 3.0 * cal.slope_stderr

    def test_shared_events_across_components_rejected(self, demo_samples):
        from spantree import DegenerateStatistic

        bg, _ = demo_samples
        with pytest.raises(DegenerateStatistic):
            calibrate_mu_vs_alpha(bg, bg, [0.0, 0.5, 1.0], trials=4, seed=31, count=1500)

    def test_endpoint_matches_pure_background(self, demo_samples):
        bg, sig = demo_samples
        cal = calibrate_mu_vs_alpha(bg, sig, [0.0, 0.5, 1.0], trials=4, seed=32, count=2000)
        rng = np.random.default_rng(999)
        idx = rng.choice(len(bg), 2000, replace=False)
        pure = observed_mu(PointSet(bg.coords[idx]))
        assert abs(cal.mu_samples[0].mean() - pure) < 3.0 * cal.sigma_l

    def test_linearity_no_quadratic_term(self, demo_samples):
        # over the working range of fractions the calibration is a line:
        # refitting with a quadratic term finds no significant coefficient
        bg, sig = demo_samples
        cal = calibrate_mu_vs_alpha(
            bg, sig, np.linspace(0.25, 0.40, 6), trials=6, seed=1, count=2500
        )
        x = np.repeat(cal.alphas, cal.mu_samples.shape[1])
        y = cal.mu_samples.ravel()
        design = np.column_stack([np.ones_like(x), x, x**2])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        cov = (resid**2).sum() / (y.size - 3) * np.linalg.inv(design.T @ design)
        quad_t = beta[2] / math.sqrt(cov[2, 2])
        assert abs(quad_t) < 3.0
        assert abs(cal.slope) > 5.0 * cal.slope_stderr

    def test_degenerate_alphas_rejected(self, demo_samples):
        bg, sig = demo_samples
        with pytest.raises(ValueError):
            calibrate_mu_vs_alpha(bg, sig, [0.3, 0.3], trials=2, seed=1, count=500)

    def test_needs_two_trials(self, demo_samples):
        bg, sig = demo_samples
        with pytest.raises(ValueError):
            calibrate_mu_vs_alpha(bg, sig, [0.0, 1.0], trials=1, seed=1, count=500)

    @pytest.mark.parametrize("count", [0, 1, 2.5, "abc"])
    def test_count_below_two_rejected(self, demo_samples, count):
        bg, sig = demo_samples
        with pytest.raises(ValueError, match="calibration count"):
            calibrate_mu_vs_alpha(bg, sig, [0.0, 1.0], trials=2, seed=1, count=count)

    def test_constraint_needs_spread(self, demo_samples):
        bg, sig = demo_samples
        # every two-point tree has one edge, so every statistic is log 1 = 0
        cal = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.4], trials=2, seed=1, count=2)
        assert cal.sigma_l == 0.0
        with pytest.raises(DegenerateStatistic, match="sigma_l = 0"):
            cal.constraint(0.0)

    def test_count_bounded_by_components(self, demo_samples):
        bg, sig = demo_samples
        with pytest.raises(ValueError):
            calibrate_mu_vs_alpha(bg, sig, [0.0, 1.0], trials=2, seed=1, count=20001)

    def test_deterministic(self, demo_samples):
        bg, sig = demo_samples
        a = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.4], trials=2, seed=5, count=800)
        b = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.4], trials=2, seed=5, count=800)
        np.testing.assert_array_equal(a.mu_samples, b.mu_samples)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _components(d: int, m: int, seed: int) -> tuple[PointSet, PointSet]:
    rng = np.random.default_rng(seed)
    return PointSet(rng.normal(size=(m, d))), PointSet(rng.normal(0.5, 0.5, size=(m, d)))


@needs_fork
class TestCalibrationPool:
    """Two workers are forced, so the pool runs on a one-CPU machine too."""

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(analysis, "_trial_workers", lambda n_trials: 2)

    @pytest.mark.parametrize("d, count", [(2, 600), (4, 250)])
    def test_matches_serial_oracle(self, monkeypatch, two_workers, d, count):
        # trees at d = 2 and d = 4: both dimensions take the kd-tree path
        bg, sig = _components(d, 2 * count, seed=70 + d)
        alphas = [0.0, 0.3, 0.6, 1.0]
        pooled = calibrate_mu_vs_alpha(bg, sig, alphas, trials=3, seed=9, count=count)
        oracle = calibration_mu_serial(bg, sig, alphas, 3, 9, count)
        np.testing.assert_array_equal(pooled.mu_samples, oracle)
        monkeypatch.setattr(analysis, "_trial_workers", lambda n_trials: 1)
        serial = calibrate_mu_vs_alpha(bg, sig, alphas, trials=3, seed=9, count=count)
        np.testing.assert_array_equal(serial.mu_samples, oracle)
        for field in ("slope", "intercept", "slope_stderr", "sigma_l"):
            assert getattr(pooled, field) == getattr(serial, field)

    def test_trials_run_in_worker_processes(self, monkeypatch, two_workers):
        def observed(ps):
            # slow enough that the forked child takes trials too
            time.sleep(0.02)
            return float(os.getpid())

        monkeypatch.setattr(analysis, "observed_mu", observed)
        bg, sig = _components(2, 200, seed=5)
        cal = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=4, seed=3, count=100)
        pids = set(cal.mu_samples.ravel().tolist())
        assert os.getpid() in pids and len(pids) <= 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_trial_blocks_above_the_record_limit(self, monkeypatch, workers):
        # 3,074 trials make 769 records of 4 trials, the last one of 2
        monkeypatch.setattr(analysis, "_trial_workers", lambda n_trials: workers)
        monkeypatch.setattr(analysis, "_trial_mu", lambda inputs, j: float(j))
        bg, sig = _components(2, 200, seed=5)
        cal = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=1537, seed=3, count=100)
        np.testing.assert_array_equal(cal.mu_samples.ravel(), np.arange(3074.0))
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "case, error, match",
        [("returns", None, None), ("degenerate", DegenerateStatistic, "fraction 0.2 "),
         ("child-raises", ValueError, "child trial"), ("interrupted", KeyboardInterrupt, None)],
        ids=["returns", "degenerate", "child-raises", "interrupted"],
    )
    def test_no_child_outlives_the_calibration(self, monkeypatch, two_workers, case, error, match):
        parent = os.getpid()

        def trial_mu(inputs, j):
            in_child = os.getpid() != parent
            if case == "child-raises" and in_child:
                raise ValueError("child trial")
            if case == "interrupted" and not in_child:
                raise KeyboardInterrupt
            # slow enough in the parent that the child takes a trial
            time.sleep(0 if in_child else 0.05)
            return math.nan if case == "degenerate" and j == 1 else float(j % 2)

        monkeypatch.setattr(analysis, "_trial_mu", trial_mu)
        bg, sig = _components(2, 200, seed=5)
        with pytest.raises(error, match=match) if error else contextlib.nullcontext():
            calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=4, seed=3, count=100)
        _assert_no_child_left()

    def test_serial_while_another_thread_runs(self, monkeypatch, two_workers):
        import threading

        monkeypatch.setattr(analysis, "observed_mu", lambda ps: float(os.getpid()))
        bg, sig = _components(2, 200, seed=5)
        results = []
        caller = threading.Thread(target=lambda: results.append(
            calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=2, seed=3, count=100)
        ))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(results) == 1
        assert set(results[0].mu_samples.ravel().tolist()) == {float(os.getpid())}

    def test_worker_error_keeps_its_type(self, two_workers):
        from spantree import DegenerateStatistic

        # zero weights leave every trial's mean edge length undefined
        bg, sig = (replace(ps, weights=np.zeros(len(ps))) for ps in _components(4, 100, seed=6))
        with pytest.raises(DegenerateStatistic, match="edge weights are zero"):
            calibrate_mu_vs_alpha(bg, sig, [0.0, 1.0], trials=2, seed=1, count=50)

    def test_degenerate_statistic_names_first_fraction(self, two_workers, demo_samples):
        from spantree import DegenerateStatistic

        bg, _ = demo_samples
        with pytest.raises(DegenerateStatistic, match="fraction 0.1 "):
            calibrate_mu_vs_alpha(bg, bg, [0.1, 0.5], trials=2, seed=31, count=1500)

    def test_earlier_degenerate_trial_wins_over_later_error(self, monkeypatch, two_workers):
        from spantree import DegenerateStatistic

        def trial_mu(inputs, j):
            if j == 3:
                raise RuntimeError("later trial")
            return math.nan if j == 1 else 0.0

        monkeypatch.setattr(analysis, "_trial_mu", trial_mu)
        bg, sig = _components(2, 200, seed=5)
        with pytest.raises(DegenerateStatistic, match="fraction 0.2 "):
            calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=2, seed=3, count=100)

    def test_dead_worker_raises_instead_of_hanging(self):
        # a fresh interpreter, so a hang ends in a timeout rather than a stuck run
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DEAD_WORKER],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "CalibrationWorkerError"


_DEAD_WORKER = """
import os
import time

import numpy as np
from spantree import PointSet, analysis

real_trial_mu = analysis._trial_mu
parent = os.getpid()


def trial_mu(inputs, j):
    if os.getpid() != parent:
        os._exit(1)
    # slow enough that the child takes a trial
    time.sleep(0.05)
    return real_trial_mu(inputs, j)


analysis._trial_workers = lambda n_trials: 2
analysis._trial_mu = trial_mu
rng = np.random.default_rng(5)
bg, sig = PointSet(rng.normal(size=(200, 2))), PointSet(rng.normal(size=(200, 2)))
try:
    analysis.calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=3, seed=3, count=100)
except Exception as exc:
    print(type(exc).__name__)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise SystemExit("a child outlived the calibration")
"""


class TestSerialCalibration:
    def test_stops_at_first_degenerate_trial(self, monkeypatch):
        from spantree import DegenerateStatistic

        monkeypatch.setattr(analysis, "_trial_workers", lambda n_trials: 1)
        calls = []

        def observed(ps):
            calls.append(1)
            return math.nan if len(calls) == 2 else 0.0

        monkeypatch.setattr(analysis, "observed_mu", observed)
        bg, sig = _components(2, 200, seed=5)
        with pytest.raises(DegenerateStatistic, match="fraction 0.2 "):
            calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=3, seed=3, count=100)
        assert len(calls) == 2


class TestTrialWorkers:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_one_worker_per_cpu(self):
        assert analysis._trial_workers(36) == 8

    def test_capped_by_trial_count(self):
        assert analysis._trial_workers(4) == 4


class TestFit:
    def test_flat_objective_unidentifiable(self):
        pdf = np.array([0.25, 0.25, 0.5])
        model = BinnedModel(pdf, pdf.copy(), np.array([10.0, 10.0, 20.0]))
        res = fit_alpha(model)
        assert math.isinf(res.sigma_alpha)

    def test_asimov_recovery(self, demo_model):
        asimov = demo_model.asimov(0.4, 6000.0)
        res = fit_alpha(asimov)
        assert res.alpha_hat == pytest.approx(0.4, abs=1e-6)

    @pytest.mark.parametrize("alpha_true", [0.1, 0.55, 0.9])
    def test_asimov_recovery_across_fractions(self, demo_model, alpha_true):
        res = fit_alpha(demo_model.asimov(alpha_true, 3000.0))
        assert res.alpha_hat == pytest.approx(alpha_true, abs=1e-6)

    def test_zero_probability_bin_identified(self):
        model = BinnedModel(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([5.0, 5.0])
        )
        with pytest.raises(FitError, match="bin 1"):
            fit_alpha(model)

    def test_minimum_dominates_curve(self, demo_model):
        res = fit_alpha(demo_model.asimov(0.3, 5000.0))
        assert res.q_min <= res.q_curve[:, 1].min() + 1e-12

    def test_augmented_adds_exact_penalty(self, demo_model):
        asimov = demo_model.asimov(0.35, 6000.0)
        constraint = MstConstraint(mu_obs=-0.2, slope=-0.3, intercept=-0.12, sigma_l=0.01)
        base = fit_alpha(asimov, None, 101)
        aug = fit_alpha(asimov, constraint, 101)
        alphas = base.q_curve[:, 0]
        np.testing.assert_array_equal(alphas, aug.q_curve[:, 0])
        delta = aug.q_curve[:, 1] - base.q_curve[:, 1]
        np.testing.assert_allclose(delta, constraint.penalty(alphas), rtol=1e-9)
        assert np.all(delta >= 0.0)

    def test_augmented_tightens_uncertainty(self, demo_samples):
        from spantree import gen_two_component

        bg, sig = demo_samples
        obs = gen_two_component(
            6000,
            0.3,
            GeneratorSpec("disc", 1, 0, 0.2, {"center": (0.0, 0.0), "radius": 20.0}),
            GeneratorSpec("disc", 1, 0, 0.2, {"center": (10.0, 4.0), "radius": 8.0}),
            77,
        )
        model = BinnedModel.from_samples(bg, sig, obs, DEMO_BINNING)
        cal = calibrate_mu_vs_alpha(bg, sig, [0.15, 0.3, 0.45], trials=4, seed=41, count=2000)
        base = fit_alpha(model)
        aug = fit_alpha(model, cal.constraint(observed_mu(obs)))
        assert aug.sigma_alpha < base.sigma_alpha

    def test_alpha_grid_variants(self, demo_model):
        asimov = demo_model.asimov(0.25, 2000.0)
        res = fit_alpha(asimov, None, np.linspace(0.0, 1.0, 51))
        assert res.alpha_hat == pytest.approx(0.25, abs=1e-6)
        with pytest.raises(ValueError):
            fit_alpha(asimov, None, 2)
        with pytest.raises(ValueError):
            fit_alpha(asimov, None, np.array([-0.2, 0.5, 1.0]))

    def test_alpha_grid_refuses_nan_points(self, demo_model):
        # NaN compares false with both ends of [0, 1]; the grid refuses it,
        # before the objective is ever evaluated there
        asimov = demo_model.asimov(0.3, 1000.0)
        for grid in ([0.0, 0.5, math.nan], [math.nan, 0.0, 0.5, 1.0], [math.nan] * 3):
            with pytest.raises(ValueError, match=r"within \[0, 1\]"):
                analysis.resolve_alpha_grid(grid)
            with pytest.raises(ValueError, match=r"within \[0, 1\]"):
                fit_alpha(asimov, None, grid)

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0, -0.0]), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_alpha_grid_points_sorted_without_repeats(self, points):
        if np.unique(points).size < 3:
            with pytest.raises(ValueError, match="at least three"):
                analysis.resolve_alpha_grid(points)
        else:
            grid = analysis.resolve_alpha_grid(points)
            assert grid.tobytes() == np.unique(np.asarray(points, dtype=np.float64)).tobytes()

    @pytest.mark.parametrize(
        "alphas, match",
        [([0.2, 0.2], "two distinct"), ([math.nan, math.nan], "two distinct"),
         ([0.2, math.nan], r"lie in \[0, 1\]"), ([0.2, 0.2, math.nan], r"lie in \[0, 1\]")],
        ids=["repeated", "nan-twice", "one-nan", "repeated-and-nan"],
    )
    def test_calibration_fractions_distinct_as_unique_counts_them(self, alphas, match):
        # NaNs count as one value, as np.unique counts them
        with pytest.raises(ValueError, match=match):
            analysis.check_calibration(alphas, 2, None)

    def test_mode_labels(self, demo_model):
        asimov = demo_model.asimov(0.3, 1000.0)
        assert fit_alpha(asimov).mode == "baseline"
        constraint = MstConstraint(-0.2, -0.3, -0.1, 0.02)
        assert fit_alpha(asimov, constraint).mode == "augmented"

    def test_bin_permutation_invariance(self, demo_model):
        asimov = demo_model.asimov(0.3, 4000.0)
        perm = np.array([3, 0, 5, 1, 4, 2])
        shuffled = BinnedModel(
            asimov.background[perm], asimov.signal[perm], asimov.observed[perm]
        )
        original = fit_alpha(asimov, None, 51)
        permuted = fit_alpha(shuffled, None, 51)
        np.testing.assert_allclose(
            original.q_curve[:, 1], permuted.q_curve[:, 1], rtol=1e-12
        )
        # the refined minimum is only determined to minimizer precision
        assert original.alpha_hat == pytest.approx(permuted.alpha_hat, abs=1e-6)

    def test_non_finite_objective_is_a_fit_error(self, demo_model):
        asimov = demo_model.asimov(0.3, 1000.0)
        with pytest.raises(FitError, match="not finite"):
            fit_alpha(asimov, MstConstraint(math.nan, -0.3, -0.1, 0.02))
        observed = asimov.observed.copy()
        observed[2] = math.inf
        with pytest.raises(FitError, match="not finite"):
            fit_alpha(BinnedModel(asimov.background, asimov.signal, observed))


# Functions for the Brent ports: a smooth part, a kink and an oscillation,
# weighted by drawn coefficients, so both the parabolic and the golden or
# bisection steps are taken.
def _drawn_function(c):
    return lambda x: (
        c[0] * (x - c[1]) ** 2 + c[2] * x**3 + c[3] * abs(x - c[4]) + c[5] * math.cos(5.0 * x)
    )


def _recording(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


COEFFS = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)


class TestBrentPorts:
    """The in-package routines against scipy.optimize: the same points
    evaluated, in the same order, and the same result bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        c=COEFFS,
        lo=st.floats(-2.0, 2.0),
        width=st.floats(1e-6, 4.0),
        xatol=st.sampled_from([1e-12, 1e-9, 1e-5]),
    )
    def test_minimizer_matches_scipy(self, c, lo, width, xatol):
        from scipy.optimize import minimize_scalar

        f = _drawn_function(c)
        ours, theirs = [], []
        x, fx = analysis._brent_minimize(_recording(f, ours), lo, lo + width, xatol)
        res = minimize_scalar(
            _recording(f, theirs), bounds=(lo, lo + width), method="bounded",
            options={"xatol": xatol},
        )
        assert ours == theirs
        assert (x, fx) == (float(res.x), float(res.fun))

    @settings(max_examples=300, deadline=None)
    @given(c=COEFFS, a=st.floats(-2.0, 0.0), b=st.floats(0.0, 2.0),
           xtol=st.sampled_from([1e-12, 1e-9, 1e-4]))
    def test_root_finder_matches_scipy(self, c, a, b, xtol):
        from scipy.optimize import brentq

        base = _drawn_function(c)
        f = lambda x: base(x) - base(0.0) + x  # noqa: E731
        if not f(a) * f(b) < 0.0:
            return
        ours, theirs = [], []
        root = analysis._brent_root(_recording(f, ours), a, b, xtol)
        expected = brentq(_recording(f, theirs), a, b, xtol=xtol)
        assert ours == theirs
        assert root == expected

    def test_seeded_sweep_matches_scipy(self):
        # coarse tolerances make the short-step tests near convergence,
        # where the minimum step delta decides, common enough to be hit
        from scipy.optimize import brentq, minimize_scalar

        rng = np.random.default_rng(8)
        roots = 0
        for _ in range(3000):
            f = _drawn_function(rng.normal(size=6).tolist())
            tol = float(10.0 ** rng.uniform(-12.0, 0.0))
            a, b = -float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))
            res = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": tol})
            assert analysis._brent_minimize(f, a, b, tol) == (float(res.x), float(res.fun))
            g = lambda x, f=f: f(x) - f(0.0) + x  # noqa: E731
            if g(a) * g(b) < 0.0:
                assert analysis._brent_root(g, a, b, tol) == brentq(g, a, b, xtol=tol)
                roots += 1
        assert roots > 1000

    def test_root_finder_failures_are_fit_errors(self):
        from scipy.optimize import brentq

        f = lambda x: math.tanh(50.0 * (x - 0.3)) + 1e-3 * x  # noqa: E731
        with pytest.raises(RuntimeError):
            brentq(f, -1.0, 1.0, xtol=1e-12, maxiter=3)
        with pytest.raises(FitError, match="after 3 iterations"):
            analysis._brent_root(f, -1.0, 1.0, 1e-12, maxiter=3)
        with pytest.raises(FitError, match="no sign change"):
            analysis._brent_root(f, 0.5, 1.0, 1e-12)


def _assert_same_fit(model, constraint, grid):
    try:
        expected = fit_alpha_scipy(model, constraint, grid)
    except FitError as exc:
        with pytest.raises(FitError, match=re.escape(str(exc))):
            fit_alpha(model, constraint, grid)
        return
    got = fit_alpha(model, constraint, grid)
    assert (got.alpha_hat, got.q_min, got.sigma_alpha) == (
        expected.alpha_hat, expected.q_min, expected.sigma_alpha
    )
    assert got.q_curve.tobytes() == expected.q_curve.tobytes()
    assert got.mode == expected.mode


class TestFitMatchesScipyOracle:
    """fit_alpha on the in-package Brent routines gives the scipy fit's bits."""

    @settings(max_examples=250, deadline=None)
    @given(
        n_bins=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        alpha_true=st.floats(0.0, 1.0),
        total=st.sampled_from([50.0, 1000.0, 6000.0]),
        poisson=st.booleans(),
        constrained=st.booleans(),
        grid=st.one_of(st.integers(3, 401), st.integers(3, 60).map(lambda k: -k)),
    )
    def test_drawn_models(self, n_bins, seed, alpha_true, total, poisson, constrained, grid):
        rng = np.random.default_rng(seed)
        b = rng.dirichlet(np.ones(n_bins))
        s = rng.dirichlet(np.full(n_bins, 0.5))
        model = BinnedModel(b, s, np.zeros(n_bins)).asimov(alpha_true, total)
        if poisson:
            model = BinnedModel(b, s, rng.poisson(model.observed).astype(float))
        constraint = None
        if constrained:
            slope = float(rng.normal(0.0, 0.3))
            constraint = MstConstraint(
                mu_obs=-0.1 + slope * alpha_true + float(rng.normal(0.0, 0.01)),
                slope=slope,
                intercept=-0.1,
                sigma_l=float(rng.uniform(0.002, 0.05)),
            )
        # a negative draw stands for that many random points in [0, 1]
        alpha_grid = grid if grid > 0 else rng.uniform(0.0, 1.0, -grid)
        _assert_same_fit(model, constraint, alpha_grid)

    def test_demo_config(self):
        from spantree.io import RunConfig
        from spantree.pipeline import resolve_input

        demo = Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json"
        config = RunConfig.load(demo)
        fit = config.fit
        bg, sig, obs = (
            resolve_input(config.inputs[role], config.seed, i)
            for i, role in enumerate((fit.background, fit.signal, fit.observed))
        )
        model = BinnedModel.from_samples(bg, sig, obs, GridBinning.from_dict(fit.binning))
        cal = calibrate_mu_vs_alpha(
            bg, sig, fit.calibration_alphas, fit.calibration_trials, config.seed,
            fit.calibration_count,
        )
        _assert_same_fit(model, None, fit.alpha_grid)
        _assert_same_fit(model, cal.constraint(observed_mu(obs)), fit.alpha_grid)
