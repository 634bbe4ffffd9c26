import json
import os
from pathlib import Path

import numpy as np
import pytest

from spantree import ConfigError, EventFileError, Histogram, PointSet, build_mst_kruskal
from spantree.cli import main
from spantree.io import (
    ColumnFilter,
    RunConfig,
    config_hash,
    read_events,
    read_histogram_csv,
    read_tree_csv,
    write_events,
    write_histogram_csv,
    write_json,
    write_text_atomic,
    write_tree_csv,
)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestEventFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ps = PointSet(
            rng.normal(scale=123.456, size=(50, 3)),
            weights=rng.random(50),
            labels=["sig" if v > 0.5 else None for v in rng.random(50)],
            feature_names=("x", "y", "z"),
        )
        path = tmp_path / "events.csv"
        write_events(ps, path, comment="# test file")
        back = read_events(path)
        np.testing.assert_array_equal(back.coords, ps.coords)
        np.testing.assert_array_equal(back.weights, ps.weights)
        assert back.labels == ps.labels
        assert back.feature_names == ps.feature_names

    def test_label_with_comma_round_trip(self, tmp_path):
        ps = PointSet([[0.0], [1.0], [2.0]], labels=["a,b", 'say "hi"', None])
        path = tmp_path / "events.csv"
        write_events(ps, path)
        assert read_events(path).labels == ps.labels

    def test_label_with_newline_round_trip(self, tmp_path):
        ps = PointSet(
            [[0.0], [1.0], [2.0], [3.0]], labels=["a\nb", "c\n\nd", "e\r\nf", None]
        )
        path = tmp_path / "events.csv"
        write_events(ps, path, comment="# test file")
        assert read_events(path).labels == ps.labels

    def test_comments_and_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('# head\nx,label\n\n1.0,"two\n\n# lines"\n  \n# note\n3.0\n')
        with pytest.raises(EventFileError, match="line 9: expected 2 fields, found 1"):
            read_events(path)
        path.write_text('# head\nx,label\n\n1.0,"two\n\n# lines"\n  \n# note\n3.0,c\n')
        assert read_events(path).labels == ("two\n\n# lines", "c")

    def test_missing_weight_column_defaults_to_one(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        ps = read_events(path)
        np.testing.assert_array_equal(ps.weights, [1.0, 1.0])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(EventFileError, match="line 3"):
            read_events(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\nbanana\n")
        with pytest.raises(EventFileError, match="line 3"):
            read_events(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\ninf\n")
        with pytest.raises(EventFileError, match="non-finite"):
            read_events(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EventFileError):
            read_events(tmp_path / "nope.csv")

    def test_ingestion_filter(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("mll,met\n80.0,20.0\n120.0,60.0\n130.0,70.0\n")
        ps = read_events(path, [ColumnFilter("met", lo=50.0)])
        assert len(ps) == 2
        assert ps.coords[:, 0].tolist() == [120.0, 130.0]


class TestTreeFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tree = build_mst_kruskal(PointSet(rng.random((20, 2))))
        path = tmp_path / "tree.csv"
        write_tree_csv(tree, path, comment="# tree")
        us, vs, lengths, weights = read_tree_csv(path)
        np.testing.assert_array_equal(us, tree.edge_u)
        np.testing.assert_array_equal(vs, tree.edge_v)
        np.testing.assert_array_equal(lengths, tree.lengths)
        np.testing.assert_array_equal(weights, tree.edge_weights)


class TestHistogramFiles:
    def test_round_trip(self, tmp_path):
        h = Histogram(0.0, 2.0, 4, np.array([1.0, 0.5, 0.0, 3.25]), 0.75, 1.5, False)
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        back = read_histogram_csv(path)
        assert back.lo == h.lo and back.hi == h.hi and back.nbins == h.nbins
        np.testing.assert_array_equal(back.contents, h.contents)
        assert back.underflow == h.underflow and back.overflow == h.overflow
        assert back.folds_overflow is False

    @pytest.mark.parametrize("row", ["overflow", "underflow"])
    def test_non_numeric_trailer_rejected(self, tmp_path, row):
        path = tmp_path / "h.csv"
        write_histogram_csv(Histogram(0.0, 1.0, 2, np.array([1.0, 2.0])), path)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(row + ","))
        lines[at] = f"{row},,abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EventFileError, match=f"line {at + 1}:"):
            read_histogram_csv(path)
        assert run_cli("plot", "hist", path, "-o", tmp_path / "h.svg") == 2


class TestJsonFiles:
    def test_non_finite_written_as_null(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": -np.inf, "b": [1.5, np.nan], "c": {"d": np.float64(np.inf)}}, path)
        assert json.loads(path.read_text()) == {"a": None, "b": [1.5, None], "c": {"d": None}}


class TestAtomicWrites:
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        write_json({"a": 1}, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_json({"a": 2}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_new_file_gets_default_mode(self, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("x")
        path = tmp_path / "out.txt"
        write_text_atomic(path, "x")
        assert path.stat().st_mode == reference.stat().st_mode


class TestRunConfig:
    def test_load_demo_config(self):
        cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json")
        assert cfg.fit is not None
        assert cfg.fit.mode == "both"
        assert set(cfg.inputs) == {"background", "signal", "observed"}

    def test_fit_requires_declared_inputs(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(
                {
                    "seed": 1,
                    "inputs": {},
                    "fit": {
                        "background": "bg",
                        "signal": "sig",
                        "observed": "obs",
                        "binning": {},
                    },
                }
            )

    def test_generator_requires_seed(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(
                {
                    "inputs": {
                        "a": {"generator": {"kind": "disc", "count": 10, "seed": 0}},
                    }
                }
            )

    def test_input_exclusivity(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(
                {
                    "seed": 1,
                    "inputs": {
                        "a": {
                            "file": "x.csv",
                            "generator": {"kind": "disc", "count": 10, "seed": 0},
                        }
                    },
                }
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="comparisons.*extra|extra.*comparisons"):
            RunConfig.from_dict({"seed": 1, "inputs": {}, "comparisons": [], "extra": 1})

    @pytest.mark.parametrize("rescale", ["bogus", "unit-range", "unit-variance"])
    def test_rescale_other_than_none_rejected(self, rescale):
        with pytest.raises(ConfigError, match="rescale"):
            RunConfig.from_dict({"seed": 1, "inputs": {}, "rescale": rescale})

    def test_config_hash_unchanged(self):
        demo = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json")
        assert demo.hash() == "aa216e78504a"
        full = {
            "seed": 3,
            "inputs": {"a": {"file": "x.csv", "filters": [{"feature": "x", "lo": 0.0}]}},
            "statistics": ["degree"],
            "histogram_specs": {"degree": {"lo": 0, "hi": 5, "nbins": 5}},
            "region_weights": {"box": {"x": [0, 1]}},
            "output_dir": "out",
        }
        assert RunConfig.from_dict(full).hash() == "46b255c98c36"
        assert RunConfig.from_dict(RunConfig.from_dict(full).to_dict()).hash() == "46b255c98c36"

    def test_hash_stability(self):
        payload = {"b": 1, "a": [1, 2]}
        assert config_hash(payload) == config_hash({"a": [1, 2], "b": 1})
        assert config_hash(payload) != config_hash({"a": [1, 2], "b": 2})


class TestCliGen:
    def test_deterministic_output(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("gen", "--preset", "sparse-grid", "--seed", 1, "-o", f1) == 0
        assert run_cli("gen", "--preset", "sparse-grid", "--seed", 1, "-o", f2) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_disc3d_preset_shape(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("gen", "--preset", "disc3d-exp", "--seed", 7, "-o", out) == 0
        ps = read_events(out)
        assert len(ps) == 4000 and ps.dimension == 3

    def test_spec_file(self, tmp_path):
        spec = {"kind": "uniform1d", "count": 100, "seed": 3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "u.csv"
        assert run_cli("gen", "--spec", spec_path, "-o", out) == 0
        assert len(read_events(out)) == 100

    def test_spec_file_seed_respected(self, tmp_path):
        # without --seed the spec's own seed governs the sample
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "uniform1d", "count": 50, "seed": 3}))
        from_spec = tmp_path / "a.csv"
        run_cli("gen", "--spec", spec_path, "-o", from_spec)
        from spantree import sample_1d

        np.testing.assert_array_equal(
            read_events(from_spec).coords, sample_1d("uniform1d", 50, 3).coords
        )
        overridden = tmp_path / "b.csv"
        run_cli("gen", "--spec", spec_path, "--seed", 4, "-o", overridden)
        assert from_spec.read_bytes() != overridden.read_bytes()

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "nope", "count": 3, "seed": 1}))
        assert run_cli("gen", "--spec", spec_path, "-o", tmp_path / "a.csv") == 2
        assert "nope" in capsys.readouterr().err
        spec_path.write_text(json.dumps({"count": 3, "seed": 1}))
        assert run_cli("gen", "--spec", spec_path, "-o", tmp_path / "a.csv") == 2
        assert run_cli("gen", "--preset", "disc", "-n", 0, "-o", tmp_path / "b.csv") == 2
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("preset", ["sparse-grid", "dense-grid", "quadratic-grid"])
    def test_grid_preset_rejects_count(self, preset, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("gen", "--preset", preset, "-n", 50, "-o", out) == 2
        assert "takes no count" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("gen", "--preset", preset, "-o", out) == 0
        assert len(read_events(out)) == 800

    def test_seed_changes_output(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--preset", "disc", "--seed", 1, "-n", 50, "-o", f1)
        run_cli("gen", "--preset", "disc", "--seed", 2, "-n", 50, "-o", f2)
        assert f1.read_bytes() != f2.read_bytes()


class TestCliBuildStats:
    def test_build_collinear(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("x\n0.0\n1.0\n3.0\n")
        out = tmp_path / "tree.csv"
        assert run_cli("build", events, "-o", out) == 0
        us, vs, lengths, _ = read_tree_csv(out)
        assert us.tolist() == [0, 1] and vs.tolist() == [1, 2]
        assert lengths.tolist() == [1.0, 2.0]

    def test_stats_outputs(self, tmp_path):
        events = tmp_path / "e.csv"
        run_cli("gen", "--preset", "disc", "--seed", 5, "-n", 200, "-o", events)
        outdir = tmp_path / "out"
        assert run_cli("stats", events, "-o", outdir) == 0
        for name in (
            "tree.csv",
            "hist_edge_length.csv",
            "hist_log_norm_length.csv",
            "hist_degree.csv",
            "hist_log_branch_length.csv",
            "summary.json",
        ):
            assert (outdir / name).exists(), name
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["vertex_count"] == 200
        assert summary["edge_count"] == 199

    def test_malformed_events_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\noops\n")
        assert run_cli("build", bad, "-o", tmp_path / "t.csv") == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli("build", tmp_path / "missing.csv", "-o", tmp_path / "t.csv") == 2

    def test_duplicated_row_summary_is_valid_json(self, tmp_path):
        # a zero-length edge makes the mean log normalized length -inf
        events = tmp_path / "e.csv"
        events.write_text("x,y\n0.0,0.0\n1.0,0.0\n1.0,0.0\n3.0,1.0\n")
        outdir = tmp_path / "out"
        assert run_cli("stats", events, "-o", outdir) == 0
        text = (outdir / "summary.json").read_text()
        assert "Infinity" not in text
        assert json.loads(text)["mean_log_norm_length"] is None

    def test_numeric_error_exit_code(self, tmp_path):
        # coincident points: the tree exists but statistics are undefined
        events = tmp_path / "e.csv"
        events.write_text("x,y\n1.0,1.0\n1.0,1.0\n")
        assert run_cli("stats", events, "-o", tmp_path / "out") == 3

    def test_all_pairs_memory_refusal_exit_code(self, tmp_path, monkeypatch):
        # 4-d input takes the all-pairs path; pretend the machine is tiny
        from spantree import mst

        monkeypatch.setattr(mst, "_physical_memory_bytes", lambda: 1000)
        events = tmp_path / "e.csv"
        rng = np.random.default_rng(59)
        write_events(PointSet(rng.random((40, 4))), events)
        out = tmp_path / "t.csv"
        assert run_cli("build", events, "-o", out) == 3
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("x\n0.0\n1.0\n")
        missing_dir = tmp_path / "no" / "such" / "dir" / "tree.csv"
        assert run_cli("build", events, "-o", missing_dir) == 4

    def test_rescale_flag(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("x\n0.0\n6.0\n12.0\n")
        out = tmp_path / "tree.csv"
        assert run_cli("build", events, "--rescale", "unit-range", "-o", out) == 0
        _, _, lengths, _ = read_tree_csv(out)
        assert lengths.tolist() == [0.5, 0.5]

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "outputs"
        workdir.mkdir()
        monkeypatch.setenv("SPANTREE_OUTPUT_DIR", str(workdir))
        events = tmp_path / "e.csv"
        events.write_text("x\n0.0\n1.0\n3.0\n")
        assert run_cli("stats", events) == 0
        assert (workdir / "summary.json").exists()

    def test_statistics_selection_via_config(self, tmp_path):
        events = tmp_path / "e.csv"
        run_cli("gen", "--preset", "disc", "--seed", 4, "-n", 120, "-o", events)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": {}, "statistics": ["degree"]}))
        outdir = tmp_path / "out"
        assert run_cli("stats", events, "--config", cfg, "-o", outdir) == 0
        assert (outdir / "hist_degree.csv").exists()
        assert not (outdir / "hist_edge_length.csv").exists()

    def test_sixthousand_events_within_budget(self, tmp_path):
        import time

        events = tmp_path / "big.csv"
        run_cli("gen", "--preset", "demo-background", "--seed", 1, "-n", 6000, "-o", events)
        start = time.perf_counter()
        assert run_cli("stats", events, "-o", tmp_path / "out") == 0
        assert time.perf_counter() - start <= 30.0

    def test_cli_sin2_sample_matches_analytic_cdf(self, tmp_path):
        from scipy import stats as scipy_stats

        out = tmp_path / "s.csv"
        assert run_cli("gen", "--preset", "sin2-1d", "--seed", 21, "-n", 100000, "-o", out) == 0
        x = read_events(out).coords[:, 0]

        def cdf(v):
            return np.clip((v / 2.0 - (2.0 / np.pi) * np.sin(np.pi * v / 4.0)) / 6.0, 0.0, 1.0)

        assert scipy_stats.kstest(x, cdf).pvalue > 0.001


class TestCliCompare:
    def test_self_comparison_zero(self, tmp_path):
        events = tmp_path / "e.csv"
        run_cli("gen", "--preset", "disc", "--seed", 6, "-n", 100, "-o", events)
        outdir = tmp_path / "cmp"
        assert run_cli("compare", events, events, "-o", outdir) == 0
        table = (outdir / "comparison_subject_vs_reference.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in table[2:]]
        assert values == [0.0] * 100

    def test_k_changes_ratio_not_length(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--preset", "disc", "--seed", 7, "-n", 80, "-o", a)
        run_cli("gen", "--preset", "strip", "--seed", 8, "-n", 80, "-o", b)
        d1, d5 = tmp_path / "k1", tmp_path / "k5"
        run_cli("compare", a, b, "--k", 1, "-o", d1)
        run_cli("compare", a, b, "--k", 5, "-o", d5)

        def columns(d):
            rows = (d / "comparison_subject_vs_reference.csv").read_text().splitlines()[2:]
            cells = [r.split(",") for r in rows]
            return [c[1] for c in cells], [c[2] for c in cells]

        c1, r1 = columns(d1)
        c5, r5 = columns(d5)
        assert c1 == c5
        assert r1 != r5

    def test_both_directions(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--preset", "dense-grid", "--seed", 9, "-o", a)
        run_cli("gen", "--preset", "sparse-grid", "--seed", 10, "-o", b)
        outdir = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--both", "-o", outdir) == 0
        assert (outdir / "comparison_subject_vs_reference.csv").exists()
        assert (outdir / "comparison_reference_vs_subject.csv").exists()


@pytest.fixture(scope="module")
def small_fit_config(tmp_path_factory):
    # a fast, reduced flavour of the shipped demo
    root = tmp_path_factory.mktemp("fitcfg")
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
                    "count": 900,
                    "alpha_true": 0.3,
                    "seed": 1000,
                    "background": {"kind": "disc", "sigma": 0.2, "params": {"center": [0.0, 0.0], "radius": 20.0}},
                    "signal": {"kind": "disc", "sigma": 0.2, "params": {"center": [10.0, 4.0], "radius": 8.0}},
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
            "alpha_grid": 101,
            "mode": "both",
        },
    }
    path = root / "fit.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCliFit:
    def test_fit_outputs(self, small_fit_config, tmp_path):
        outdir = tmp_path / "fit"
        assert run_cli("fit", small_fit_config, "-o", outdir) == 0
        result = json.loads((outdir / "fit_result.json").read_text())
        assert 0.0 <= result["baseline"]["alpha_hat"] <= 1.0
        assert 0.0 <= result["augmented"]["alpha_hat"] <= 1.0
        assert result["calibration"]["sigma_l"] > 0
        curve = (outdir / "q_curve.csv").read_text().splitlines()
        assert curve[1] == "alpha,q_baseline,q_augmented"
        assert len(curve) == 2 + 101
        assert (outdir / "effective_config.json").exists()

    def test_mode_baseline_only(self, small_fit_config, tmp_path):
        outdir = tmp_path / "fit"
        assert run_cli("fit", small_fit_config, "--mode", "baseline", "-o", outdir) == 0
        result = json.loads((outdir / "fit_result.json").read_text())
        assert "baseline" in result and "augmented" not in result
        assert (outdir / "q_curve.csv").read_text().splitlines()[1] == "alpha,q_baseline"

    def test_effective_config_reruns(self, small_fit_config, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("fit", small_fit_config, "--mode", "baseline", "-o", first) == 0
        echoed = first / "effective_config.json"
        assert run_cli("fit", echoed, "--mode", "baseline", "-o", second) == 0
        assert (first / "fit_result.json").read_bytes() == (second / "fit_result.json").read_bytes()

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("fit", bad, "-o", tmp_path / "out") == 2

    def test_shipped_demo_config(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json"
        outdir = tmp_path / "demo"
        assert run_cli("fit", demo, "-o", outdir) == 0
        result = json.loads((outdir / "fit_result.json").read_text())
        assert result["augmented"]["sigma_alpha"] <= result["baseline"]["sigma_alpha"]
        assert abs(result["calibration"]["slope"]) > 5 * result["calibration"]["slope_stderr"]


class TestCliPlot:
    def test_tree_segment_count(self, tmp_path):
        events = tmp_path / "e.csv"
        run_cli("gen", "--preset", "disc", "--seed", 12, "-n", 20, "-o", events)
        out = tmp_path / "tree.svg"
        assert run_cli("plot", "tree", "--events", events, "-o", out) == 0
        svg = out.read_text()
        # one segment per tree edge (axis ticks use a different stroke)
        assert svg.count('stroke="#888888"') == 19

    def test_non_2d_requires_axes(self, tmp_path):
        events = tmp_path / "e3.csv"
        run_cli("gen", "--preset", "disc3d-uniform", "--seed", 13, "-n", 30, "-o", events)
        out = tmp_path / "t.svg"
        assert run_cli("plot", "tree", "--events", events, "-o", out) == 2
        assert run_cli("plot", "tree", "--events", events, "--axes", "x,z", "-o", out) == 0

    def test_unknown_axis_is_config_error(self, tmp_path, capsys):
        events = tmp_path / "e3.csv"
        run_cli("gen", "--preset", "disc3d-uniform", "--seed", 13, "-n", 30, "-o", events)
        out = tmp_path / "t.svg"
        assert run_cli("plot", "tree", "--events", events, "--axes", "x,nope", "-o", out) == 2
        assert "nope" in capsys.readouterr().err
        assert not out.exists()

    def test_projections_differ(self, tmp_path):
        events = tmp_path / "e3.csv"
        run_cli("gen", "--preset", "disc3d-exp", "--seed", 14, "-n", 40, "-o", events)
        xy, xz = tmp_path / "xy.svg", tmp_path / "xz.svg"
        run_cli("plot", "tree", "--events", events, "--axes", "x,y", "-o", xy)
        run_cli("plot", "tree", "--events", events, "--axes", "x,z", "-o", xz)
        assert xy.read_text() != xz.read_text()

    def test_empty_histogram_is_valid_svg(self, tmp_path):
        h = Histogram(0.0, 1.0, 4, np.zeros(4))
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        out = tmp_path / "h.svg"
        assert run_cli("plot", "hist", path, "-o", out) == 0
        text = out.read_text()
        assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")

    def test_histogram_overlay(self, tmp_path):
        p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        write_histogram_csv(Histogram(0.0, 1.0, 2, np.array([1.0, 2.0])), p1)
        write_histogram_csv(Histogram(0.0, 1.0, 2, np.array([2.0, 1.0])), p2)
        out = tmp_path / "overlay.svg"
        assert run_cli("plot", "hist", p1, p2, "-o", out) == 0
        assert out.read_text().count("<polyline") == 2

    def test_labeled_events_get_legend(self, tmp_path):
        events = tmp_path / "mix.csv"
        events.write_text(
            "x,y,label\n0.0,0.0,background\n1.0,0.0,signal\n0.0,1.0,background\n"
        )
        out = tmp_path / "mix.svg"
        assert run_cli("plot", "tree", "--events", events, "-o", out) == 0
        svg = out.read_text()
        assert ">background</text>" in svg and ">signal</text>" in svg


class TestPipelineDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        def pipeline(base: Path) -> dict[str, bytes]:
            base.mkdir()
            events = base / "events.csv"
            run_cli("gen", "--preset", "dense-grid", "--seed", 3, "-o", events)
            run_cli("stats", events, "-o", base / "stats")
            run_cli("plot", "tree", "--events", events, "-o", base / "tree.svg")
            run_cli(
                "plot", "hist", base / "stats" / "hist_edge_length.csv", "-o", base / "h.svg"
            )
            return {
                p.relative_to(base).as_posix(): p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            }

        first = pipeline(tmp_path / "run1")
        second = pipeline(tmp_path / "run2")
        assert first == second
