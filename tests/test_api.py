import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import spantree
from spantree import PointSet, histogram
from spantree.io import write_events, write_histogram_csv

PUBLIC_API = [
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


def test_public_api_is_pinned():
    assert spantree.__all__ == PUBLIC_API


def test_star_import_gives_exactly_the_public_api():
    namespace: dict = {}
    exec("from spantree import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_API)


def test_each_name_is_listed_under_the_module_defining_it():
    # a name listed under another module would load that module too
    listed = {name: f"spantree.{spantree._MODULE_OF[name]}" for name in PUBLIC_API[1:]}
    assert {name: getattr(spantree, name).__module__ for name in listed} == listed


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)


def test_load_sample_loads_no_tree_builder():
    loaded = set(_python("-c", "import sys, spantree; spantree.load_sample; "
                               "print(' '.join(sys.modules))").stdout.split())
    assert "spantree.io" in loaded and not loaded & {"spantree.pipeline", "spantree.mst"}


# Runs the CLI in a fresh interpreter, then prints its exit code and every
# module it loaded.
_PROBE = """
import sys
from spantree.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code)
print(" ".join(sys.modules))
"""


def _loaded_by(*argv, code: int = 0) -> set[str]:
    proc = _python("-c", _PROBE, *map(str, argv))
    exit_code, modules = proc.stdout.splitlines()[-2:]
    assert exit_code == str(code), proc.stderr
    return set(modules.split())


def _scipy_part(loaded: set[str]) -> set[str]:
    """scipy's modules among ``loaded``, and the numpy modules that scipy.sparse's
    array API layer imports; np.unique imports numpy.ma as well."""
    part = {m for m in loaded if m.partition(".")[0] == "scipy"
            or m in ("numpy.f2py", "numpy.testing", "numpy.ma")}
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        part.discard("numpy.ma")  # numpy 1.x imports it with numpy itself
    return part


def _scipy_loaded_by(*argv) -> set[str]:
    return _scipy_part(_loaded_by(*argv))


def test_import_and_version_load_no_scipy():
    assert _scipy_loaded_by("--version") == set()


def test_gen_and_plot_hist_load_no_scipy(tmp_path):
    # nor the tree builder; plot hist loads no fit module either
    events = tmp_path / "disc.csv"
    loaded = _loaded_by("gen", "--preset", "disc", "-n", 50, "-o", events)
    assert "spantree.generators" in loaded
    assert _scipy_part(loaded) == set() and "spantree.mst" not in loaded
    hist = tmp_path / "hist.csv"
    write_histogram_csv(histogram([0.5, 1.5], [1.0, 2.0], 0.0, 2.0, 2), hist)
    loaded = _loaded_by("plot", "hist", hist, "-o", tmp_path / "hist.svg")
    assert "spantree.svg" in loaded
    assert _scipy_part(loaded) == set() and not loaded & {"spantree.mst", "spantree.analysis"}


@pytest.mark.parametrize("argv, code", [(("--version",), 0), (("--help",), 0),
                                        (("gen", "--preset", "nope"), 2)],
                         ids=["version", "help", "usage-error"])
def test_parser_paths_load_no_numpy(argv, code):
    loaded = _loaded_by(*argv, code=code)
    assert "spantree.cli" in loaded
    assert not {m for m in loaded if m.partition(".")[0] == "numpy"}


# Runs the CLI in a fresh interpreter, after loading numpy when argv[1] is
# "numpy-first", and prints OPENBLAS_NUM_THREADS, the process's thread count
# and whether os.environ is as it was before the call.
_BLAS_PROBE = """
import os
import sys

if sys.argv[1] == "numpy-first":
    import numpy
from spantree.cli import main

before = dict(os.environ)
assert main(sys.argv[2:]) == 0
threads = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else 1
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads, dict(os.environ) == before)
"""


@pytest.mark.parametrize("preset, first", [(None, "cli-first"), ("2", "cli-first"),
                                           (None, "numpy-first")],
                         ids=["default", "preset", "numpy-loaded"])
def test_cli_defaults_one_blas_thread(tmp_path, preset, first):
    events = tmp_path / "events.csv"
    write_events(PointSet(np.random.default_rng(5).random((40, 2))), events)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, first, "stats", str(events), "-o",
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads, unchanged = proc.stdout.splitlines()[-1].split()
    if first == "numpy-first":
        # numpy loaded with its own thread count, so the environment is left alone
        assert (value, unchanged) == ("None", "True")
    else:
        # a value set by the user wins
        assert value == (preset or "1")
        if not preset:
            assert threads == "1"


# Calls the CLI twice with gc.freeze counting its calls, then runs the exit
# hooks and prints how often it ran.
_EXIT_HOOK_PROBE = """
import atexit
import gc
import sys

from spantree.cli import main

calls = []
gc.freeze = lambda: calls.append(1)
for _ in range(2):
    assert main(["gen", "--preset", "disc", "-n", "20", "-o", sys.argv[1]]) == 0
atexit._run_exitfuncs()
print(len(calls))
"""


def test_main_freezes_the_heap_once_at_exit(tmp_path):
    from spantree.cli import main

    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["gen", "--preset", "disc", "-n", "20", "-o", str(tmp_path / "d.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    proc = _python("-c", _EXIT_HOOK_PROBE, str(tmp_path / "e.csv"))
    assert proc.stdout.splitlines()[-1] == "1"


def test_cli_preset_names_are_the_generators_presets():
    # the parser's choices are spelt out in the CLI so that building it loads no numpy
    from spantree import cli, generators

    assert cli.PRESET_NAMES == generators.PRESET_NAMES
    assert cli.PRESET_NAMES == tuple(sorted(generators._preset_table(0, None)))


# modules that build and stats (without a run config) never run
_UNUSED_BY_TREE_COMMANDS = {"spantree.analysis", "spantree.generators", "spantree.compare",
                            "spantree.svg"}


def test_build_loads_only_its_modules(tmp_path):
    events = tmp_path / "events.csv"
    write_events(PointSet(np.random.default_rng(8).random((40, 2))), events)
    loaded = _loaded_by("build", events, "-o", tmp_path / "tree.csv")
    assert "spantree.mst" in loaded and not loaded & _UNUSED_BY_TREE_COMMANDS


def test_cli_import_loads_no_process_pool():
    # a dead calibration worker raises the package's own error, which exits 3
    probe = "import sys, spantree.cli; print('concurrent.futures' in sys.modules)"
    assert _python("-c", probe).stdout.strip() == "False"


def _assert_loads_only_kd_tree(loaded: set[str]) -> None:
    # the compiled kd-tree alone, not the scipy.spatial package around it
    assert "scipy.spatial._ckdtree" in loaded
    assert "scipy.spatial" not in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)
    # the extension's imports of scipy.sparse and scipy._lib._util have
    # stand-ins that serve what scipy 1.17's extension takes; an older scipy
    # may ask for more, which loads the real modules
    if np.lib.NumpyVersion(scipy.__version__) < "1.17.0":
        pytest.skip("the kd-tree load's stand-ins were checked against scipy 1.17 only")
    assert not loaded & {"scipy.sparse", "scipy._lib._util", "numpy.f2py", "numpy.testing",
                         "numpy.ma"}


def test_stats_loads_no_scipy_optimize(tmp_path):
    events = tmp_path / "events.csv"
    write_events(PointSet(np.random.default_rng(5).random((40, 2))), events)
    loaded = _loaded_by("stats", events, "-o", tmp_path / "out")
    assert "spantree.pipeline" in loaded and not loaded & _UNUSED_BY_TREE_COMMANDS
    _assert_loads_only_kd_tree(_scipy_part(loaded))


def test_compare_loads_only_the_kd_tree(tmp_path):
    rng = np.random.default_rng(6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_events(PointSet(rng.random((40, 2))), a)
    write_events(PointSet(rng.random((30, 2))), b)
    loaded = _loaded_by("compare", a, b, "--both", "-o", tmp_path / "cmp")
    assert "spantree.compare" in loaded
    assert not loaded & {"spantree.analysis", "spantree.generators", "spantree.svg"}
    _assert_loads_only_kd_tree(_scipy_part(loaded))


def test_region_weighted_stats_and_compare_load_no_analysis(tmp_path):
    # the box is parsed and applied by spantree.geometry; only fit loads the fit module
    rng = np.random.default_rng(7)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_events(PointSet(rng.random((40, 2)), feature_names=("x", "y")), a)
    write_events(PointSet(rng.random((30, 2)), feature_names=("x", "y")), b)
    config = tmp_path / "box.json"
    config.write_text(json.dumps({"region_weights": {"box": {"x": [0.2, 0.6]},
                                                     "inside_weight": 0.25}}))
    for argv in (("stats", a), ("compare", a, b, "--both")):
        loaded = _loaded_by(*argv, "--config", config, "-o", tmp_path / argv[0])
        assert "spantree.geometry" in loaded and "spantree.analysis" not in loaded
        assert (tmp_path / argv[0]).is_dir()


def _small_fit_config(path: Path) -> Path:
    def disc(center, radius, **extra):
        return {"kind": "disc", "sigma": 0.2, "params": {"center": center, "radius": radius}, **extra}

    cfg = {
        "seed": 3,
        "inputs": {
            "background": {"generator": disc([0.0, 0.0], 20.0, count=400, seed=1)},
            "signal": {"generator": disc([10.0, 4.0], 8.0, count=400, seed=2)},
            "observed": {
                "two_component": {
                    "count": 300,
                    "alpha_true": 0.3,
                    "background": disc([0.0, 0.0], 20.0),
                    "signal": disc([10.0, 4.0], 8.0),
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
            "calibration_alphas": [0.2, 0.4],
            "calibration_trials": 2,
            "calibration_count": 200,
            "alpha_grid": 51,
        },
    }
    path.write_text(json.dumps(cfg))
    return path


def test_fit_loads_no_scipy_optimize(tmp_path):
    config = _small_fit_config(tmp_path / "fit.json")
    loaded = _scipy_loaded_by("fit", config, "--mode", "both", "-o", tmp_path / "both")
    _assert_loads_only_kd_tree(loaded)


def test_fit_loads_no_process_pool(tmp_path):
    # the calibration forks its own children
    config = _small_fit_config(tmp_path / "fit.json")
    loaded = _loaded_by("fit", config, "--mode", "both", "-o", tmp_path / "both")
    assert not {m for m in loaded if m.partition(".")[0] in ("multiprocessing", "concurrent")}


def test_baseline_fit_loads_no_scipy(tmp_path):
    config = _small_fit_config(tmp_path / "fit.json")
    assert _scipy_loaded_by("fit", config, "--mode", "baseline", "-o", tmp_path / "base") == set()
