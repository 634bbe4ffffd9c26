"""The library pipelines behind ``stats``, ``compare`` and ``fit``.

Each ``run_*`` must give the numbers its command writes, and each sample
read from an event file must be built as one ``PointSet``, after its
rescaling and region weights, so the checks see the rescaled coordinates.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spantree import (
    ConfigError,
    PointSet,
    RegionWeight,
    apply_region_weights,
    build_mst_kruskal,
    connection_ratios,
    load_sample,
    rescale_features,
    run_compare,
    run_fit,
    run_stats,
)
from spantree.cli import main
from spantree.io import RunConfig, read_events, write_events

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json"
# squared distances overflow, but not once each feature is mapped to [0, 1]
FAR = "x,y\n1e200,0\n-1e200,0\n0,1\n5,5\n"
REGION = {"region_weights": {"box": {"x": [0.2, 0.6]}, "inside_weight": 0.25}}


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def discs(tmp_path):
    rng = np.random.default_rng(21)
    paths = []
    for name, count in (("a.csv", 300), ("b.csv", 200)):
        paths.append(tmp_path / name)
        ps = PointSet(rng.normal(size=(count, 2)) * (3.0, 0.5), rng.uniform(0.5, 2.0, count),
                      feature_names=("x", "y"))
        write_events(ps, paths[-1])
    config = tmp_path / "region.json"
    config.write_text(json.dumps(REGION))
    return paths, config


@pytest.fixture
def post_inits(monkeypatch):
    """Every PointSet built from here on."""
    built = []
    check = PointSet.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PointSet, "__post_init__", counting)
    return built


class TestOnePointSetPerSample:
    def test_stats(self, discs, post_inits, tmp_path):
        (a, _), config = discs
        assert run_cli("stats", a, "--rescale", "unit-range", "--config", config,
                       "-o", tmp_path / "out") == 0
        assert len(post_inits) == 1

    def test_compare(self, discs, post_inits, tmp_path):
        (a, b), config = discs
        assert run_cli("compare", a, b, "--both", "--rescale", "unit-range", "--config", config,
                       "-o", tmp_path / "out") == 0
        assert len(post_inits) == 2

    @pytest.mark.parametrize("rescale", ["none", "unit-range", "unit-variance"])
    def test_same_sample_as_rescale_then_weigh(self, discs, rescale):
        (a, _), _ = discs
        config = RunConfig.from_dict(REGION, "stats")
        once = load_sample(a, rescale, config.weigh)
        box = RegionWeight({"x": (0.2, 0.6)}, 0.25, 1.0)
        steps = apply_region_weights(rescale_features(read_events(a), rescale), box)
        assert once.coords.tobytes() == steps.coords.tobytes()
        assert once.weights.tobytes() == steps.weights.tobytes()
        assert once.feature_names == steps.feature_names == ("x", "y")


class TestRescaleBeforeTheOverflowCheck:
    @pytest.mark.parametrize("command", ["stats", "build", "compare"])
    def test_unit_range_rescues_an_overflowing_file(self, command, tmp_path, capsys):
        far = tmp_path / "far.csv"
        far.write_text(FAR)
        inputs = [far, far] if command == "compare" else [far]
        out = tmp_path / "out"
        assert run_cli(command, *inputs, "-o", out) == 2
        assert "squared distances overflow" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(command, *inputs, "--rescale", "unit-range", "-o", out) == 0
        assert out.exists()

    def test_rescaled_coordinates(self, tmp_path):
        far = tmp_path / "far.csv"
        far.write_text(FAR)
        ps = load_sample(far, "unit-range")
        np.testing.assert_array_equal(ps.coords, [[1.0, 0.0], [0.0, 0.0], [0.5, 0.2], [0.5, 1.0]])

    @pytest.mark.parametrize("rows", ["1e200,0\n-1e200,0\n0,1\n", "1.5e308,0\n-1.5e308,0\n0,1\n"])
    def test_a_rescale_that_overflows_is_refused(self, rows, tmp_path, capsys):
        # the variance of the first file overflows, the range of the second:
        # refused, where a feature collapsed to 0 would pass every check
        far = tmp_path / "far.csv"
        far.write_text("x,y\n" + rows)
        mode = "unit-variance" if rows.startswith("1e200") else "unit-range"
        out = tmp_path / "out"
        assert run_cli("stats", far, "--rescale", mode, "-o", out) == 2
        assert f"too far for {mode} rescaling" in capsys.readouterr().err
        assert not out.exists()


def test_run_stats_matches_the_cli(discs, tmp_path):
    (a, _), config = discs
    out = tmp_path / "out"
    assert run_cli("stats", a, "--config", config, "-o", out) == 0
    config = RunConfig.load(config, "stats")
    run = run_stats(load_sample(a, "none", config.weigh), config)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_length"] == run.total_length
    assert summary["mean_log_norm_length"] == run.summary.mean_log_norm_length
    assert summary["vertex_count"] == run.tree.vertex_count == 300
    assert sorted(run.histograms) == ["degree", "edge_length", "log_branch_length",
                                      "log_norm_length"]
    tree = np.loadtxt(out / "tree.csv", delimiter=",", skiprows=2)
    np.testing.assert_array_equal(tree[:, 2], run.tree.lengths)


def test_run_compare_builds_each_tree_once_and_swaps(discs):
    (a, b), _ = discs
    subject, reference = load_sample(a), load_sample(b)
    one = run_compare(subject, reference, k=3)
    both = run_compare(subject, reference, k=3, both=True)
    assert [c.tag for c in one] == ["subject_vs_reference"]
    assert [c.tag for c in both] == ["subject_vs_reference", "reference_vs_subject"]
    forward, backward = both
    assert forward.result.connection_ratio.tobytes() == one[0].result.connection_ratio.tobytes()
    assert backward.result.weights.tobytes() == reference.weights.tobytes()
    direct = connection_ratios(build_mst_kruskal(reference), build_mst_kruskal(subject), k=3)
    assert backward.result.connection_ratio.tobytes() == direct.connection_ratio.tobytes()
    assert forward.lengths.total == pytest.approx(float(subject.weights.sum()))


def test_run_fit_matches_the_cli(tmp_path):
    out = tmp_path / "fit"
    assert run_cli("fit", DEMO_CONFIG, "-o", out) == 0
    written = json.loads((out / "fit_result.json").read_text())
    run = run_fit(RunConfig.load(DEMO_CONFIG, "fit"))
    assert written["mode"] == run.config.fit.mode == "both"
    for name in ("baseline", "augmented"):
        fit = getattr(run, name)
        assert written[name] == {
            "alpha_hat": fit.alpha_hat, "sigma_alpha": fit.sigma_alpha, "q_min": fit.q_min
        }
    cal = run.calibration
    assert written["calibration"] == {
        "slope": cal.slope,
        "intercept": cal.intercept,
        "slope_stderr": cal.slope_stderr,
        "sigma_l": cal.sigma_l,
        "mu_obs": run.mu_obs,
    }
    curve = np.loadtxt(out / "q_curve.csv", delimiter=",", skiprows=2)
    expected = np.column_stack([run.baseline.q_curve, run.augmented.q_curve[:, 1]])
    assert curve.tobytes() == expected.tobytes()


def test_run_fit_overrides_seed_and_mode():
    config = RunConfig.load(DEMO_CONFIG, "fit")
    run = run_fit(config, seed=4, mode="baseline")
    assert (run.config.seed, run.config.fit.mode) == (4, "baseline")
    assert run.augmented is run.calibration is run.mu_obs is None
    assert run.baseline.mode == "baseline"
    assert (config.seed, config.fit.mode) != (4, "baseline")


def test_run_fit_needs_a_fit_section():
    with pytest.raises(ConfigError, match="no fit section"):
        run_fit(RunConfig())
