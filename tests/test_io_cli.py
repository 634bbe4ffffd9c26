import csv
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantree import (
    ConfigError,
    EventFileError,
    Histogram,
    PointSet,
    build_mst_kruskal,
    histogram,
)
from spantree.cli import main
from spantree.io import (
    ColumnFilter,
    RunConfig,
    config_hash,
    filter_events,
    histogram_range,
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


def _snapshot(directory: Path) -> dict:
    """Each file's name and bytes."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


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

    def test_leading_hash_text_round_trip(self, tmp_path):
        # a bare "#a" as the first header cell would make the header a comment
        ps = PointSet([[1.0, 2.0], [3.0, 4.0]], labels=["#x", " #y"], feature_names=("#a", "b"))
        path = tmp_path / "events.csv"
        write_events(ps, path)
        assert path.read_text() == '"#a",b,label\n1.0,2.0,"#x"\n3.0,4.0," #y"\n'
        back = read_events(path)
        assert back.feature_names == ps.feature_names and back.labels == ps.labels
        assert back.coords.tolist() == ps.coords.tolist()

    def test_labels_keep_their_blanks(self, tmp_path):
        ps = PointSet([[0.0], [1.0], [2.0], [3.0]], labels=[" a", "b ", " ", None])
        path = tmp_path / "events.csv"
        write_events(ps, path)
        assert read_events(path).labels == ps.labels
        # header names lose their blanks, so a hand-written "x, y" header works
        path.write_text("x, y ,label\n0.0,1.0, c\n2.0,3.0,\n")
        back = read_events(path)
        assert back.feature_names == ("x", "y") and back.labels == (" c", None)

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

    def test_negative_weight_names_line(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("x,y,weight\n0,0,1\n\n1,1,-1\n2,2,-3\n")
        with pytest.raises(EventFileError, match="line 4: negative weight -1.0"):
            read_events(path)
        out = tmp_path / "out"
        assert run_cli("stats", path, "-o", out) == 2
        assert "line 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header", ["x,x", "x,y,weight,weight", "x,label,label"])
    def test_repeated_header_name(self, header, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text(header + "\n" + ",".join("1" * len(header.split(","))) + "\n")
        with pytest.raises(EventFileError, match="more than once"):
            read_events(path)
        out = tmp_path / "tree.svg"
        assert run_cli("plot", "tree", "--events", path, "--axes", "x,x", "-o", out) == 2
        assert "more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_ingestion_filter(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("mll,met\n80.0,20.0\n120.0,60.0\n130.0,70.0\n")
        ps = filter_events(read_events(path), [ColumnFilter("met", lo=50.0)])
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

    def test_bins_narrower_than_the_float_spacing(self, tmp_path):
        # linspace repeats an edge here, so some bins are empty
        h = histogram([1e15, 1e15 + 0.5], [1.0, 2.0], 1e15, 1e15 + 1.0, 50)
        assert (np.diff(h.edges) == 0).any()
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        back = read_histogram_csv(path)
        assert (back.lo, back.hi, back.nbins) == (h.lo, h.hi, h.nbins)
        assert back.contents.tobytes() == h.contents.tobytes()
        out = tmp_path / "h.svg"
        assert run_cli("plot", "hist", path, "-o", out) == 0
        assert out.read_text().rstrip().endswith("</svg>")

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


# text holding every character the table format must quote; the event
# reader strips a column name's edges, so drawn names avoid edge blanks
_LABELS = st.text(st.sampled_from('ab7 ,"\r\n#é'), min_size=1, max_size=8)
_NAMES = _LABELS.filter(lambda s: s == s.strip() and s not in ("weight", "label"))
_FLOATS = st.floats(-1e6, 1e6)


def _csv_writer_text(rows, lineterminator: str) -> str:
    """``rows`` as ``csv.writer(lineterminator=...)`` quotes them, each ended by a line feed.

    Text whose first non-blank character is ``#`` is quoted too.
    """
    def cell(c) -> str:
        if isinstance(c, str) and c.lstrip().startswith("#"):
            return '"' + c.replace('"', '""') + '"'
        buf = io.StringIO()
        # a trailing empty field keeps csv.writer from quoting a lone empty one
        csv.writer(buf, lineterminator=lineterminator).writerow([c, ""])
        return buf.getvalue()[: -len(lineterminator) - 1]

    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


class TestTableRoundTrip:
    """Every table reader gives back exactly what its writer was given."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), names=st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    def test_events_trees_and_histograms(self, data, names, tmp_path_factory):
        path = tmp_path_factory.mktemp("tables") / "table.csv"
        m = data.draw(st.integers(1, 12))
        row = st.lists(_FLOATS, min_size=len(names), max_size=len(names))
        coords = data.draw(st.lists(row, min_size=m, max_size=m))
        weights = data.draw(st.lists(st.floats(0.0, 1e6), min_size=m, max_size=m))
        labels = data.draw(st.lists(st.none() | _LABELS, min_size=m, max_size=m))
        labels = labels if any(label is not None for label in labels) else None
        ps = PointSet(coords, weights, labels, names)
        write_events(ps, path, comment="# events")
        back = read_events(path)
        assert back.coords.tobytes() == ps.coords.tobytes()
        assert back.weights.tobytes() == ps.weights.tobytes()
        assert back.labels == ps.labels and back.feature_names == ps.feature_names

        # the same cells through csv.writer
        with_weights = any(w != 1.0 for w in weights)
        rows = [names + ["weight"] * with_weights + ["label"] * (labels is not None)]
        for i, values in enumerate(coords):
            label = [labels[i] or ""] if labels else []
            rows.append(values + weights[i : i + 1] * with_weights + label)
        text = path.read_bytes().decode()
        # a field whose only special character is a carriage return is quoted
        # too: csv.writer leaves it bare, and csv.reader cannot read that back
        assert text == "# events\n" + _csv_writer_text(rows, "\r\n")
        if not any("\r" in cell for cell in rows[0] + (labels or []) if cell):
            assert text == "# events\n" + _csv_writer_text(rows, "\n")

        tree = build_mst_kruskal(ps)
        write_tree_csv(tree, path)
        want = (tree.edge_u, tree.edge_v, tree.lengths, tree.edge_weights)
        for got, expected in zip(read_tree_csv(path), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

        nbins = data.draw(st.integers(1, 60))
        lo = data.draw(st.floats(-1e3, 1e3))
        h = Histogram(
            lo,
            lo + data.draw(st.floats(1e-3, 1e6)),
            nbins,
            data.draw(st.lists(_FLOATS, min_size=nbins, max_size=nbins)),
            data.draw(_FLOATS),
            data.draw(_FLOATS),
            data.draw(st.booleans()),
        )
        write_histogram_csv(h, path, comment="# histogram")
        back = read_histogram_csv(path)
        assert (back.lo, back.hi, back.nbins, back.folds_overflow) == (
            h.lo, h.hi, h.nbins, h.folds_overflow
        )
        assert back.contents.tobytes() == h.contents.tobytes()
        assert (back.underflow, back.overflow) == (h.underflow, h.overflow)


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

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"histogram_specs": {"volume": {"lo": 0, "hi": 1, "nbins": 2}}}, "unknown histogram"),
            ({"histogram_specs": {"degree": {"lo": 0, "hi": "x", "nbins": 2}}}, "degree"),
            ({"region_weights": {}}, "takes a box"),
            ({"region_weights": {"box": {"x": [0, 1]}, "weight": 0}}, "takes a box"),
            ({"region_weights": {"box": {"x": [0, 1]}, "apply_to": ["b"]}}, "undeclared inputs"),
        ],
        ids=["unknown-histogram", "non-numeric-hi", "no-box", "unknown-region-key", "undeclared-input"],
    )
    def test_bad_sections_rejected_on_load(self, section, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict({"seed": 1, "inputs": {"a": {"file": "a.csv"}}, **section})

    @staticmethod
    def _demo_with(field, value):
        cfg = json.loads(DEMO_CONFIG.read_text())
        if field == "seed":
            cfg["seed"] = value
        elif field == "nbins":
            cfg["histogram_specs"] = {"degree": {"lo": 0, "hi": 5, "nbins": value}}
        elif " " in field:
            # "generator count" sets the background generator's count, and
            # "two_component seed" the observed mixture's seed
            section, key = field.split()
            role = "background" if section == "generator" else "observed"
            cfg["inputs"][role][section][key] = value
        else:
            cfg["fit"][field] = value
        return cfg

    @pytest.mark.parametrize("value", [2.9, True], ids=["fraction", "boolean"])
    @pytest.mark.parametrize(
        "field",
        ["calibration_trials", "alpha_grid", "seed", "nbins", "generator count",
         "generator seed", "two_component count", "two_component seed"],
    )
    def test_integers_are_not_truncated(self, field, value):
        key = field.split()[-1]
        with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value!r}"):
            RunConfig.from_dict(self._demo_with(field, value))

    @pytest.mark.parametrize("field", ["calibration_trials", "alpha_grid", "seed"])
    def test_integral_numbers_load_as_integers(self, field):
        cfg = RunConfig.from_dict(self._demo_with(field, 7.0))
        value = cfg.seed if field == "seed" else getattr(cfg.fit, field)
        assert value == 7 and type(value) is int

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

    def test_failed_stats_writes_nothing(self, tmp_path):
        # a good run's outputs stay as they were: the coincident run fails
        # on its second statistic, after the tree and a first histogram
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        run_cli("gen", "--preset", "disc", "--seed", 5, "-n", 100, "-o", good)
        bad.write_text("x,y\n1.0,1.0\n1.0,1.0\n1.0,1.0\n")
        outdir = tmp_path / "out"
        assert run_cli("stats", good, "-o", outdir) == 0
        before = _snapshot(outdir)
        assert run_cli("stats", bad, "-o", outdir) == 3
        assert _snapshot(outdir) == before
        assert run_cli("stats", bad, "-o", tmp_path / "fresh") == 3
        assert not (tmp_path / "fresh").exists()

    def test_all_pairs_memory_refusal_exit_code(self, tmp_path, monkeypatch):
        # a package error while building: exit 3 and no tree file
        from spantree import SpanTreeError, cli

        def refuse(ps):
            raise SpanTreeError("cannot build this tree")

        monkeypatch.setattr(cli, "build_mst_kruskal", refuse)
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

    def test_config_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        events = tmp_path / "e.csv"
        events.write_text("x\n0.0\n1.0\n3.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": {}, "output_dir": "wanted"}))
        assert run_cli("stats", events, "--config", cfg) == 0
        assert (tmp_path / "wanted" / "summary.json").exists()
        assert not (tmp_path / "summary.json").exists()
        # -o still wins
        assert run_cli("stats", events, "--config", cfg, "-o", tmp_path / "flag") == 0
        assert (tmp_path / "flag" / "summary.json").exists()

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

    def test_config_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        events = tmp_path / "e.csv"
        events.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,2.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": {}, "output_dir": "wanted"}))
        assert run_cli("compare", events, events, "--config", cfg) == 0
        assert (tmp_path / "wanted" / "comparison_subject_vs_reference.csv").exists()
        assert not (tmp_path / "comparison_subject_vs_reference.csv").exists()
        assert run_cli("compare", events, events, "--config", cfg, "-o", tmp_path / "flag") == 0
        assert (tmp_path / "flag" / "comparison_subject_vs_reference.csv").exists()

    def test_failed_backward_comparison_writes_nothing(self, tmp_path):
        # one subject event: the forward direction pools the reference's
        # edges and works, the backward one has no subject edges to pool
        a, b, one = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "one.csv"
        run_cli("gen", "--preset", "disc", "--seed", 7, "-n", 80, "-o", a)
        run_cli("gen", "--preset", "disc", "--seed", 8, "-n", 80, "-o", b)
        one.write_text("x,y\n1.0,2.0\n")
        outdir = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--both", "-o", outdir) == 0
        before = _snapshot(outdir)
        assert run_cli("compare", one, b, "-o", tmp_path / "forward") == 0
        assert run_cli("compare", one, b, "--both", "-o", outdir) == 3
        assert _snapshot(outdir) == before

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

    def test_coincident_observed_events_exit_3(self, small_fit_config, tmp_path, capsys):
        events = tmp_path / "observed.csv"
        coords = np.random.default_rng(4).uniform(-15.0, 15.0, (300, 2))
        write_events(PointSet(np.vstack([coords, coords[:3]]), feature_names=("x", "y")), events)
        cfg = json.loads(small_fit_config.read_text())
        cfg["inputs"]["observed"] = {"file": str(events)}
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("fit", path, "-o", out) == 3
        assert "coincident points" in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_demo_config(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json"
        outdir = tmp_path / "demo"
        assert run_cli("fit", demo, "-o", outdir) == 0
        result = json.loads((outdir / "fit_result.json").read_text())
        assert result["augmented"]["sigma_alpha"] <= result["baseline"]["sigma_alpha"]
        assert abs(result["calibration"]["slope"]) > 5 * result["calibration"]["slope_stderr"]


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fit_demo.json"
_DEMO_EDGES = {"x_edges": [-21.0, 6.0, 12.0, 21.0], "y_edges": [-21.0, 2.0, 21.0]}

# one field of the demo config's fit section changed, and the error it must give
FIT_CONFIG_ERRORS = {
    "count-above-components": ({"calibration_count": 20000}, "exceeds a component"),
    "count-zero": ({"calibration_count": 0}, "calibration count"),
    "count-string": ({"calibration_count": "abc"}, "calibration count"),
    "alphas-repeated": ({"calibration_alphas": [0.2, 0.2]}, "two distinct"),
    "alphas-outside": ({"calibration_alphas": [0.2, 1.5]}, r"\[0, 1\]"),
    "alphas-string": ({"calibration_alphas": "ab"}, "must be numbers"),
    "one-trial": ({"calibration_trials": 1}, "two trials"),
    "fractional-trials": ({"calibration_trials": 2.9}, "calibration_trials must be an integer"),
    "grid-two": ({"alpha_grid": 2}, "three samples"),
    "one-bin": (
        {"binning": {"x_feature": "x", "y_feature": "y", "x_edges": [-21.0, 21.0],
                     "y_edges": [-21.0, 21.0]}},
        "at least two bins",
    ),
    "no-x-edges": (
        {"binning": {"x_feature": "x", "y_feature": "y", "y_edges": [-21.0, 2.0, 21.0]}},
        "x_edges",
    ),
    "unknown-x-feature": (
        {"binning": {"x_feature": "energy", "y_feature": "y", **_DEMO_EDGES}},
        "unknown feature 'energy'",
    ),
    "edges-outside-events": (
        {"binning": {"x_feature": "x", "y_feature": "y", "x_edges": [100.0, 101.0, 102.0],
                     "y_edges": [100.0, 101.0]}},
        "positive total weight",
    ),
}


def _assert_config_error(code: int, capsys, out: Path, match: str) -> None:
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1, err
    assert re.search(match, err), err
    assert not out.exists()


class TestCliConfigErrors:
    """Bad settings exit 2 with a one-line error and write nothing."""

    @pytest.mark.parametrize("case", sorted(FIT_CONFIG_ERRORS))
    def test_fit_section(self, case, tmp_path, capsys):
        change, match = FIT_CONFIG_ERRORS[case]
        cfg = json.loads(DEMO_CONFIG.read_text())
        cfg["fit"].update(change)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        _assert_config_error(run_cli("fit", path, "-o", out), capsys, out, match)

    @pytest.fixture
    def events(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(PointSet(np.random.default_rng(2).random((30, 2)), feature_names=("x", "y")), path)
        return path

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"histogram_specs": {"degree": {"lo": 5, "hi": 5, "nbins": 5}}}, "lo < hi"),
            ({"histogram_specs": {"degree": {"hi": 5, "nbins": 5}}}, "lacks \\['lo'\\]"),
            ({"histogram_specs": {"degree": {"lo": 0, "hi": 5, "nbins": 0}}}, "nbins"),
            ({"region_weights": {"box": {"x": [0, 1]}, "inside_weight": -1}}, "non-negative"),
            ({"region_weights": {"box": {"energy": [0, 1]}}}, "unknown feature 'energy'"),
            ({"histogram_specs": {"degree": {"lo": 0, "hi": 5, "nbins": 5, "overflow": "no"}}},
             "overflow is true or false, got 'no'"),
            ({"histogram_specs": {"degree": {"lo": 0, "hi": 5, "nbins": 5, "overflw": False}}},
             r"unknown keys \['overflw'\]"),
            # refused at load, before any bin is allocated
            ({"histogram_specs": {"edge_length": {"lo": 0, "hi": 5, "nbins": 1e12}}},
             "nbins must be 1 to 1000000, got 1000000000000"),
            ({"histogram_specs": {"degree": {"lo": 0, "hi": 5, "nbins": 10**6 + 1}}},
             "nbins must be 1 to 1000000, got 1000001"),
        ],
        ids=["hist-empty-range", "hist-no-lo", "hist-no-bins", "negative-weight", "unknown-box-feature",
             "hist-overflow-string", "hist-unknown-key", "hist-huge-nbins", "hist-nbins-over-limit"],
    )
    def test_stats_config(self, section, match, events, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 1, "inputs": {"a": {"file": str(events)}}, **section}))
        out = tmp_path / "out"
        code = run_cli("stats", events, "--config", config, "-o", out)
        _assert_config_error(code, capsys, out, match)

    def test_nbins_limit_itself_loads(self):
        assert histogram_range("degree", {"lo": 0, "hi": 5, "nbins": 10**6})[2] == 10**6

    def test_compare_k_zero(self, events, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("compare", events, events, "--k", 0, "-o", out)
        _assert_config_error(code, capsys, out, "--k must be at least 1")

    def test_unit_variance_of_one_event(self, tmp_path, capsys):
        events = tmp_path / "one.csv"
        events.write_text("x,y\n1.0,2.0\n")
        out = tmp_path / "tree.csv"
        code = run_cli("build", events, "--rescale", "unit-variance", "-o", out)
        _assert_config_error(code, capsys, out, "at least two points")

    def test_plot_tree_vertex_outside_events(self, tmp_path, capsys):
        events = tmp_path / "three.csv"
        events.write_text("x,y\n1.0,2.0\n3.0,4.0\n5.0,7.0\n")
        tree = tmp_path / "tree.csv"
        tree.write_text("u,v,length,weight\n0,999,1.0,1.0\n")
        out = tmp_path / "tree.svg"
        code = run_cli("plot", "tree", "--events", events, "--tree", tree, "-o", out)
        _assert_config_error(code, capsys, out, "vertex outside the 3 events")


def _set(path: str, value):
    """A change to a demo config's inputs: ``value`` at the "/"-separated ``path``."""

    def change(inputs: dict, events: Path) -> None:
        *keys, last = path.split("/")
        target = inputs
        for key in keys:
            target = target[key]
        target[last] = value(events) if callable(value) else value

    return change


# one change to the demo config's inputs, and the error it must give
INPUT_CONFIG_ERRORS = {
    "misspelt-param": (_set("background/generator/params/raduis", 5.0), "raduis"),
    "sigma-on-1d": (
        _set("background/generator", {"kind": "uniform1d", "count": 50, "seed": 1, "sigma": 0.2}),
        "uniform1d takes no sigma",
    ),
    "mixture-alpha-1.5": (_set("observed/two_component/alpha_true", 1.5), r"alpha_true must lie in \[0, 1\]"),
    "mixture-kind-discc": (_set("observed/two_component/background/kind", "discc"), "'discc'"),
    "mixture-count-0": (_set("observed/two_component/count", 0), "count must be positive"),
    "grid-count-off-lattice": (
        _set(
            "signal/generator",
            {"kind": "grid", "count": 801, "seed": 1, "params": {"cols": 20, "rows": 40}},
        ),
        r"grid count must equal cols\*rows \(800\), got 801",
    ),
    "grid-count-default-shape": (
        _set("signal/generator", {"kind": "quadratic_grid", "count": 801, "seed": 1}),
        r"grid count must equal cols\*rows \(800\), got 801",
    ),
    "mixture-grid-component": (
        _set("observed/two_component/signal", {"kind": "grid", "params": {"cols": 2, "rows": 2}}),
        "grid cannot be a mixture component",
    ),
    "file-filter-unknown-feature": (
        _set("observed", lambda events: {"file": str(events), "filters": [{"feature": "met"}]}),
        "unknown feature 'met'",
    ),
    "file-filter-bound": (
        _set("observed", lambda events: {"file": str(events), "filters": [{"feature": "x", "lo": "low"}]}),
        "bounds are numbers, got 'low'",
    ),
    "generator-filter-unknown-feature": (
        _set("background/filters", [{"feature": "z", "hi": 1.0}]), "unknown filter feature 'z'"
    ),
    "generator-filter-bound": (
        _set("background/filters", [{"feature": "x", "hi": "high"}]), "bounds are numbers, got 'high'"
    ),
    "mixture-filter-unknown-feature": (
        _set("observed/filters", [{"feature": 2, "lo": 0.0}]), "unknown filter feature 2"
    ),
    "mixture-filter-bound": (
        _set("observed/filters", [{"feature": "y", "lo": [0]}]), r"bounds are numbers, got \[0\]"
    ),
}


class TestInputsRejectedBeforeAnyDraw:
    """A bad input exits 2 with a one-line error, draws no sample and writes nothing."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr("spantree.cli.generate", draw)
        monkeypatch.setattr("spantree.cli.gen_two_component", draw)

    @pytest.mark.parametrize("case", sorted(INPUT_CONFIG_ERRORS))
    def test_fit_input(self, case, tmp_path, capsys):
        change, match = INPUT_CONFIG_ERRORS[case]
        events = tmp_path / "events.csv"
        write_events(PointSet(np.random.default_rng(3).random((30, 2)), feature_names=("x", "y")), events)
        cfg = json.loads(DEMO_CONFIG.read_text())
        change(cfg["inputs"], events)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        _assert_config_error(run_cli("fit", path, "-o", out), capsys, out, match)

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"kind": "strip", "params": {"widht": 50.0}}, "widht"),
            ({"kind": "sin2_1d", "sigma": 0.1}, "sin2_1d takes no sigma"),
            ({"kind": "exponential1d", "params": {"radius": 1.0}}, "exponential1d takes no params"),
        ],
        ids=["misspelt-param", "sigma-on-1d", "params-on-1d"],
    )
    def test_gen_spec(self, spec, match, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"count": 40, "seed": 1, **spec}))
        out = tmp_path / "events.csv"
        _assert_config_error(run_cli("gen", "--spec", path, "-o", out), capsys, out, match)


class TestFiltersOnEveryInput:
    @pytest.mark.parametrize("kind", ["generator", "two_component"])
    def test_generated_input_filtered(self, kind):
        from spantree.cli import _resolve_input

        inputs = json.loads(DEMO_CONFIG.read_text())["inputs"]
        entry = inputs["background" if kind == "generator" else "observed"]
        entry["filters"] = [{"feature": "x", "lo": 0.0}, {"feature": 1, "hi": 5.0}]
        config = RunConfig.from_dict({"seed": 5, "inputs": {"a": entry}})
        ps = _resolve_input(config.inputs["a"], config.seed, 0)
        assert 0 < len(ps) < 6000
        assert ps.coords[:, 0].min() >= 0.0 and ps.coords[:, 1].max() <= 5.0

    def test_filter_removing_every_generated_event(self, tmp_path, capsys):
        cfg = json.loads(DEMO_CONFIG.read_text())
        cfg["inputs"]["background"]["filters"] = [{"feature": "x", "lo": 100.0}]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        _assert_config_error(run_cli("fit", path, "-o", out), capsys, out, "removed every event")


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


# a tree or histogram file the plot commands must refuse: (plot kind, file
# text, the error); each once plotted and exited 0
BAD_TABLES = {
    "headerless-tree": ("tree", "0,1,1.0,1.0\n1,2,1.0,1.0\n", "line 1: tree file header must be"),
    "events-as-tree": ("tree", "x,y,a,b\n0,1,1,1\n1,2,1,1\n", "line 1: tree file header must be"),
    "headerless-histogram": ("hist", "0.0,1.0,2.0\n1.0,2.0,3.0\n", "histogram file header must be"),
    "gapped-bins": (
        "hist", "bin_lo,bin_hi,content\n0,1,2.0\n5,6,1.0\n", "line 3: bin_lo 5.0 differs from"
    ),
    "reversed-bins": ("hist", "bin_lo,bin_hi,content\n6,0,2.0\n", "line 2: bin_lo 6.0 is above"),
    "empty-range": ("hist", "bin_lo,bin_hi,content\n1,1,2.0\n", r"range \[1.0, 1.0\) is empty"),
    "nan-content": ("hist", "bin_lo,bin_hi,content\n0,1,2.0\n1,2,nan\n", "line 3: non-finite"),
    "nan-trailer": ("hist", "bin_lo,bin_hi,content\n0,1,2.0\noverflow,,nan\n", "line 3: non-fin"),
    "uneven-bins": (
        "hist", "bin_lo,bin_hi,content\n0,1,1.0\n1,3,1.0\n", "line 3: bin_lo 1.0 is off the uniform"
    ),
    # once an OverflowError traceback (exit 1)
    "index-beyond-64-bits": (
        "tree", "u,v,length,weight\n0,1,1.0,1.0\n0,9223372036854775808,1.0,1.0\n",
        "line 3: vertex index beyond 64 bits",
    ),
}


class TestPlotRefusesBadTables:
    @pytest.mark.parametrize("case", sorted(BAD_TABLES))
    def test_exit_2_without_svg(self, case, tmp_path, capsys):
        kind, text, match = BAD_TABLES[case]
        table = tmp_path / "table.csv"
        table.write_text(text)
        out = tmp_path / "plot.svg"
        if kind == "tree":
            events = tmp_path / "events.csv"
            events.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
            code = run_cli("plot", "tree", "--events", events, "--tree", table, "-o", out)
        else:
            code = run_cli("plot", "hist", table, "-o", out)
        _assert_config_error(code, capsys, out, match)


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
