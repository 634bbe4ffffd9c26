import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bruteforce import calibration_mu_serial
from spantree import (
    BinnedModel,
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
        assert build_mst_kruskal(ps).edge_set() == build_mst_kruskal(weighted).edge_set()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RegionWeight(box={}, inside_weight=-1.0, outside_weight=1.0)


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

    def test_round_trip(self):
        again = GridBinning.from_dict(DEMO_BINNING.to_dict())
        assert again == DEMO_BINNING


class TestBinnedModel:
    def test_templates_must_normalize(self):
        with pytest.raises(ValueError):
            BinnedModel(np.array([0.5, 0.4]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))

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

    def test_count_bounded_by_components(self, demo_samples):
        bg, sig = demo_samples
        with pytest.raises(ValueError):
            calibrate_mu_vs_alpha(bg, sig, [0.0, 1.0], trials=2, seed=1, count=20001)

    def test_deterministic(self, demo_samples):
        bg, sig = demo_samples
        a = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.4], trials=2, seed=5, count=800)
        b = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.4], trials=2, seed=5, count=800)
        np.testing.assert_array_equal(a.mu_samples, b.mu_samples)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


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
        # d = 2 builds on Delaunay edges, d = 4 by kd-tree Borůvka
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
        monkeypatch.setattr(analysis, "observed_mu", lambda ps: float(os.getpid()))
        bg, sig = _components(2, 200, seed=5)
        cal = calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=4, seed=3, count=100)
        pids = set(cal.mu_samples.ravel().tolist())
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

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
        bg, sig = (ps.with_weights(np.zeros(len(ps))) for ps in _components(4, 100, seed=6))
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
        assert proc.stdout.strip() == "BrokenProcessPool"


_DEAD_WORKER = """
import os

import numpy as np
from spantree import PointSet, analysis

real_trial_mu = analysis._trial_mu


def trial_mu(inputs, j):
    if j == 2:
        os._exit(1)
    return real_trial_mu(inputs, j)


analysis._trial_workers = lambda n_trials: 2
analysis._trial_mu = trial_mu
rng = np.random.default_rng(5)
bg, sig = PointSet(rng.normal(size=(200, 2))), PointSet(rng.normal(size=(200, 2)))
try:
    analysis.calibrate_mu_vs_alpha(bg, sig, [0.2, 0.8], trials=3, seed=3, count=100)
except Exception as exc:
    print(type(exc).__name__)
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
