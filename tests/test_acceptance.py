"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` for the line-by-line
report. Every tolerance is pinned here; none defers to runtime
calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from spantree import (
    BinnedModel,
    GeneratorSpec,
    GridBinning,
    PointSet,
    build_mst_kruskal,
    calibrate_mu_vs_alpha,
    connection_lengths,
    connection_ratios,
    degrees,
    extract_branches,
    fit_alpha,
    gen_disc3d,
    gen_two_component,
    generate,
    histogram,
    log_normalized_lengths,
    normalized_lengths,
    observed_mu,
    preset_spec,
    sample_1d,
    summarize,
    tree_total_length,
)
from spantree.analysis import MstConstraint
from spantree.cli import main as cli_main

from bruteforce import build_mst_prim, edge_set, min_spanning_total_bruteforce

# demo constants shared by the fit criteria: a broad uniform disc with a
# denser disc embedded off-center, mixed at a true signal fraction of 0.3
DEMO_BG = GeneratorSpec("disc", 12000, 101, 0.2, {"center": (0.0, 0.0), "radius": 20.0})
DEMO_SIG = GeneratorSpec("disc", 12000, 202, 0.2, {"center": (10.0, 4.0), "radius": 8.0})
DEMO_BG_ONE = GeneratorSpec("disc", 1, 0, 0.2, {"center": (0.0, 0.0), "radius": 20.0})
DEMO_SIG_ONE = GeneratorSpec("disc", 1, 0, 0.2, {"center": (10.0, 4.0), "radius": 8.0})
DEMO_BINNING = GridBinning("x", "y", (-21.0, 6.0, 12.0, 21.0), (-21.0, 2.0, 21.0))
DEMO_ALPHA_TRUE = 0.3


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def demo_components():
    return generate(DEMO_BG), generate(DEMO_SIG)


@pytest.fixture(scope="module")
def demo_calibration(demo_components):
    bg, sig = demo_components
    return calibrate_mu_vs_alpha(
        bg, sig, [0.15, 0.21, 0.27, 0.33, 0.39, 0.45], trials=6, seed=555, count=3000
    )


def test_01_mst_exactness_against_bruteforce():
    """Criterion 1: Kruskal matches the exhaustive spanning-tree minimum."""
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(3, 9))
        dim = int(rng.integers(1, 4))
        coords = rng.random((m, dim)) * 10.0
        total = tree_total_length(build_mst_kruskal(PointSet(coords)))
        oracle = min_spanning_total_bruteforce(coords)
        assert abs(total - oracle) <= 1e-9 * oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"brute-force comparison took {elapsed:.1f}s"
    report(1, f"200 point sets match the exhaustive minimum (1e-9 rel, {elapsed:.1f}s)")


def test_02_kruskal_prim_agreement():
    """Criterion 2: identical edge sets on 50 random 1000-point inputs."""
    rng = np.random.default_rng(4242)
    for i in range(50):
        dim = 1 + i % 3
        ps = PointSet(rng.random((1000, dim)) * 100.0)
        assert edge_set(build_mst_kruskal(ps)) == edge_set(build_mst_prim(ps))
    report(2, "Kruskal and Prim agree exactly on 50 random 1000-point inputs")


def test_03_one_dimensional_structure():
    """Criterion 3: sorted chains, span identity, tails, and KS checks."""
    kinds = ("uniform1d", "exponential1d", "sin2_1d")

    # structure: the tree over a 1-d sample is the consecutive chain of the
    # sorted values, and its total length is the spanned interval
    for seed, kind in enumerate(kinds):
        ps = sample_1d(kind, 2000, 300 + seed)
        order = np.argsort(ps.coords[:, 0])
        tree = build_mst_kruskal(PointSet(ps.coords[order]))
        assert edge_set(tree) == {(i, i + 1) for i in range(1999)}
        span = float(ps.coords.max() - ps.coords.min())
        assert tree_total_length(tree) == pytest.approx(span, rel=1e-12)

    # with the chain structure established, edge lengths of the large
    # samples are the sorted-value differences
    def cdf_uniform(x):
        return np.clip(x / 12.0, 0.0, 1.0)

    def cdf_exponential(x):
        return np.clip((1.0 - np.exp(-x)) / (1.0 - np.exp(-12.0)), 0.0, 1.0)

    def cdf_sin2(x):
        return np.clip((x / 2.0 - (2.0 / np.pi) * np.sin(np.pi * x / 4.0)) / 6.0, 0.0, 1.0)

    tails = {}
    for kind, cdf in zip(kinds, (cdf_uniform, cdf_exponential, cdf_sin2)):
        x = sample_1d(kind, 100_000, 77).coords[:, 0]
        assert scipy_stats.kstest(x, cdf).pvalue > 0.001
        tails[kind] = float(np.quantile(np.diff(np.sort(x)), 0.999))
    assert tails["exponential1d"] > tails["uniform1d"]
    assert tails["sin2_1d"] > tails["uniform1d"]
    report(3, "1-d chains, span identity, KS fits, and heavier non-uniform tails")


def test_04_statistic_identities():
    """Criterion 4: normalization, handshake, path branches, scale invariance."""
    rng = np.random.default_rng(99)
    for m in (2, 17, 400):
        tree = build_mst_kruskal(PointSet(rng.random((m, 2))))
        mean_norm = np.mean(normalized_lengths(tree)[0])
        assert mean_norm == pytest.approx(1.0, abs=1e-12)
        assert degrees(tree)[0].sum() == 2 * (m - 1)

    for n in (2, 50, 300):
        path = build_mst_kruskal(PointSet(np.sort(rng.random(n))))
        assert len(extract_branches(path)[0]) == 1

    coords = rng.random((300, 3))
    reference = histogram(
        *log_normalized_lengths(build_mst_kruskal(PointSet(coords))), -4.0, 2.0, 40
    )
    for scale in (2.0, 3.7, 0.125):
        scaled = histogram(
            *log_normalized_lengths(build_mst_kruskal(PointSet(coords * scale))), -4.0, 2.0, 40
        )
        np.testing.assert_array_equal(scaled.contents, reference.contents)
        assert scaled.underflow == reference.underflow
        assert scaled.overflow == reference.overflow
    report(4, "statistic identities hold (normalization, degrees, branches, scaling)")


def test_05_comparison_direction_and_tails():
    """Criterion 5: dense/sparse asymmetry stable across ten seeds."""
    for seed in range(10):
        dense = build_mst_kruskal(generate(preset_spec("dense-grid", 2 * seed)))
        sparse = build_mst_kruskal(generate(preset_spec("sparse-grid", 2 * seed + 1)))
        c_dense = connection_lengths(dense, sparse)[0]
        c_sparse = connection_lengths(sparse, dense)[0]
        assert c_dense.mean() < c_sparse.mean(), f"seed {seed}"
        r_dense = connection_ratios(dense, sparse, k=5).connection_ratio
        r_sparse = connection_ratios(sparse, dense, k=5).connection_ratio
        assert np.percentile(r_sparse, 95) > np.percentile(r_dense, 95), f"seed {seed}"
    report(5, "dense/sparse asymmetry in the expected direction for 10 seeds")


def test_06_hidden_variable_discrimination():
    """Criterion 6: a third dimension separates otherwise identical discs."""
    start = time.perf_counter()

    t2a = build_mst_kruskal(generate(preset_spec("disc", 501)))
    t2b = build_mst_kruskal(generate(preset_spec("disc", 502)))
    c_ab = connection_lengths(t2a, t2b)[0]
    c_ba = connection_lengths(t2b, t2a)[0]
    p_2d = scipy_stats.ks_2samp(c_ab, c_ba).pvalue
    assert p_2d > 0.01, f"2-d discs distinguishable (p={p_2d:.3g})"

    t3u = build_mst_kruskal(gen_disc3d(4000, radius=20.0, sigma=0.2, z_kind="uniform", seed=601))
    t3e = build_mst_kruskal(
        gen_disc3d(4000, radius=20.0, sigma=0.2, z_kind="exponential", seed=602)
    )
    lnl_u = log_normalized_lengths(t3u)[0]
    lnl_e = log_normalized_lengths(t3e)[0]
    p_lnl = scipy_stats.ks_2samp(lnl_u, lnl_e).pvalue
    c_ue = connection_lengths(t3u, t3e)[0]
    c_eu = connection_lengths(t3e, t3u)[0]
    p_c = scipy_stats.ks_2samp(c_ue, c_eu).pvalue
    assert p_lnl < 1e-6, f"log norm lengths not separated (p={p_lnl:.3g})"
    assert p_c < 1e-6, f"connection lengths not separated (p={p_c:.3g})"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"hidden-variable check took {elapsed:.1f}s"
    report(
        6,
        f"2-d discs indistinguishable (p={p_2d:.2g}); third dimension separates "
        f"them (p<1e-6) in {elapsed:.1f}s",
    )


def test_07_fit_demo(demo_components, demo_calibration):
    """Criterion 7: Asimov recovery, uncertainty gain, calibration slope."""
    bg, sig = demo_components
    b = DEMO_BINNING.weighted_counts(bg)
    s = DEMO_BINNING.weighted_counts(sig)
    templates = BinnedModel(b / b.sum(), s / s.sum(), np.zeros_like(b))

    # (a) expectation-valued counts are recovered exactly
    asimov_fit = fit_alpha(templates.asimov(0.4, 6000.0))
    assert asimov_fit.alpha_hat == pytest.approx(0.4, abs=1e-6)

    # (b) the tree statistic tightens the uncertainty trial after trial
    cal = demo_calibration
    wins = 0
    for trial in range(10):
        observed = gen_two_component(
            6000, DEMO_ALPHA_TRUE, DEMO_BG_ONE, DEMO_SIG_ONE, 1000 + trial
        )
        model = BinnedModel.from_samples(bg, sig, observed, DEMO_BINNING)
        baseline = fit_alpha(model)
        augmented = fit_alpha(model, cal.constraint(observed_mu(observed)))
        wins += augmented.sigma_alpha < baseline.sigma_alpha
    assert wins >= 9, f"augmented fit tightened sigma in only {wins}/10 trials"

    # (c) the calibration carries real information about the fraction
    slope_t = abs(cal.slope) / cal.slope_stderr
    assert slope_t > 5.0, f"calibration slope only {slope_t:.1f} standard errors from zero"
    report(
        7,
        f"Asimov exact, sigma gain in {wins}/10 trials, slope at {slope_t:.0f} standard errors",
    )


def test_08_penalty_bookkeeping(demo_components):
    """Criterion 8: augmented minus baseline equals the quadratic penalty."""
    bg, sig = demo_components
    observed = gen_two_component(6000, DEMO_ALPHA_TRUE, DEMO_BG_ONE, DEMO_SIG_ONE, 4321)
    model = BinnedModel.from_samples(bg, sig, observed, DEMO_BINNING)
    constraint = MstConstraint(mu_obs=-0.19, slope=-0.29, intercept=-0.13, sigma_l=0.006)
    baseline = fit_alpha(model, None, 201)
    augmented = fit_alpha(model, constraint, 201)
    alphas = baseline.q_curve[:, 0]
    np.testing.assert_array_equal(alphas, augmented.q_curve[:, 0])
    delta = augmented.q_curve[:, 1] - baseline.q_curve[:, 1]
    expected = constraint.penalty(alphas)
    np.testing.assert_allclose(delta, expected, rtol=1e-9)
    report(8, "augmented objective equals baseline plus penalty at all 201 grid points")


def test_09_performance_6000_points():
    """Criterion 9: build plus full statistics for 6000 points within budget."""
    ps = generate(GeneratorSpec("disc", 6000, 31415, 0.2, {"center": (0.0, 0.0), "radius": 20.0}))
    start = time.perf_counter()
    tree = build_mst_kruskal(ps)
    summary = summarize(tree)
    histogram(*log_normalized_lengths(tree), -4.0, 2.0, 50)
    histogram(*degrees(tree), 0.5, 8.5, 8)
    lengths, weights = extract_branches(tree)
    keep = lengths > 0
    histogram(np.log(lengths[keep]), weights[keep], -4.0, 4.0, 50)
    elapsed = time.perf_counter() - start
    assert summary.edge_count == 5999
    assert elapsed <= 30.0, f"6000-point build and statistics took {elapsed:.1f}s"
    report(9, f"6000-point build plus statistics in {elapsed:.2f}s (budget 30s)")


def test_10_cli_determinism(tmp_path):
    """Criterion 10: pipeline reruns are byte for byte identical."""

    def pipeline(base: Path) -> dict[str, bytes]:
        base.mkdir()
        events = base / "events.csv"
        assert cli_main(["gen", "--preset", "dense-grid", "--seed", "3", "-o", str(events)]) == 0
        assert cli_main(["stats", str(events), "-o", str(base / "stats")]) == 0
        assert cli_main(["compare", str(events), str(events), "-o", str(base / "cmp")]) == 0
        assert (
            cli_main(["plot", "tree", "--events", str(events), "-o", str(base / "tree.svg")])
            == 0
        )
        assert (
            cli_main(
                [
                    "plot",
                    "hist",
                    str(base / "stats" / "hist_edge_length.csv"),
                    str(base / "stats" / "hist_log_norm_length.csv"),
                    "-o",
                    str(base / "hists.svg"),
                ]
            )
            == 0
        )
        cfg = {
            "seed": 11,
            "inputs": {
                "background": {
                    "generator": {
                        "kind": "disc",
                        "count": 1200,
                        "seed": 101,
                        "sigma": 0.2,
                        "params": {"center": [0.0, 0.0], "radius": 20.0},
                    }
                },
                "signal": {
                    "generator": {
                        "kind": "disc",
                        "count": 1200,
                        "seed": 202,
                        "sigma": 0.2,
                        "params": {"center": [10.0, 4.0], "radius": 8.0},
                    }
                },
                "observed": {
                    "two_component": {
                        "count": 800,
                        "alpha_true": 0.3,
                        "seed": 9,
                        "background": {
                            "kind": "disc",
                            "sigma": 0.2,
                            "params": {"center": [0.0, 0.0], "radius": 20.0},
                        },
                        "signal": {
                            "kind": "disc",
                            "sigma": 0.2,
                            "params": {"center": [10.0, 4.0], "radius": 8.0},
                        },
                    }
                },
            },
            "fit": {
                "background": "background",
                "signal": "signal",
                "observed": "observed",
                "binning": {
                    "x_feature": "x",
                    "y_feature": "y",
                    "x_edges": [-21.0, 6.0, 12.0, 21.0],
                    "y_edges": [-21.0, 2.0, 21.0],
                },
                "calibration_alphas": [0.15, 0.3, 0.45],
                "calibration_trials": 2,
                "calibration_count": 600,
                "alpha_grid": 51,
                "mode": "both",
            },
        }
        cfg_path = base / "fit.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["fit", str(cfg_path), "-o", str(base / "fit")]) == 0
        return {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file() and p.name != "fit.json"
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"outputs differ between reruns: {diffs}"
    report(10, f"{len(first)} pipeline outputs byte-identical across reruns (incl. SVG)")
