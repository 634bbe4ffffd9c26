"""Self-tests of the benchmark itself (not of spantree).

    python3 -m pytest perfbench/test_perfbench.py -q

Covers the span and self-time arithmetic, that each oracle accepts real
spantree output and rejects a corrupted copy, and that inputs depend on
the seed alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def toy_trace():
    # cli.main [0, 10] > mst.build [1, 4] > stats.summarize [2, 3]; io.write_json [5, 9]
    t = tracer.Tracer("toy", clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("cli.main", "cli")
    build = t.open("mst.build_mst_kruskal", "mst")
    inner = t.open("stats.summarize", "stats")
    t.close(inner)
    t.close(build)
    write = t.open("io.write_json", "io")
    t.close(write)
    t.close(root)
    return t.spans


def test_nesting_and_self_times():
    spans = toy_trace()
    parents = {s.name: s.parent for s in spans}
    assert parents == {"cli.main": None, "mst.build_mst_kruskal": 0, "stats.summarize": 1,
                       "io.write_json": 0}
    own = tracer.self_times(spans)
    assert [own[s.id] for s in spans] == [3, 2, 1, 4]
    assert sum(own.values()) == spans[0].duration


def test_layer_totals_add_up_to_the_command():
    spans = toy_trace()
    totals = layers.layer_totals(spans)
    assert totals["cli"] == (3, 1) and totals["mst"] == (2, 1) and totals["io"] == (4, 1)
    assert sum(t for t, _ in totals.values()) == layers.root_span(spans).duration
    metrics = layers.span_metrics(spans)
    assert metrics["cli.self_s"] == 3 and metrics["mst.build_s"] == 2
    assert metrics["trace.coverage"] == pytest.approx(0.7)


def test_wrap_nests_real_calls_and_counts():
    t = tracer.Tracer("wrap")

    def leaf(x):
        return [x] * 3

    wrapped_leaf = t.wrap(leaf, "io.read_events", "io", lambda a, k, r: {"rows_read": len(r)})

    def outer():
        return wrapped_leaf(1) + wrapped_leaf(2)

    root = t.open("cli.main", "cli")
    t.wrap(outer, "analysis.fit_alpha", "analysis")()
    t.close(root)
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("cli.main", None), ("analysis.fit_alpha", 0), ("io.read_events", 1),
                     ("io.read_events", 1)]
    assert layers.span_metrics(t.spans)["io.rows_read"] == 6
    roundtrip = tracer.spans_from_dict(json.loads(json.dumps(t.to_dict())))
    assert tracer.self_times(roundtrip) == tracer.self_times(t.spans)


# ---------------------------------------------------------------------------
# oracles against real spantree output


def spantree(*args: str, cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run([sys.executable, "-c", workloads.LAUNCHER, *args], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def rewrite_rows(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to the data rows of a CSV file, keeping comments and header."""
    lines = path.read_text().splitlines()
    head = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header, rows = body[0], [l.split(",") for l in body[1:]]
    edit(rows)
    path.write_text("\n".join([*head, header, *(",".join(r) for r in rows)]) + "\n")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tree_oracle_matches_scipy_over_all_pairs(dim):
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial.distance import pdist, squareform

    coords = np.random.default_rng(dim).standard_normal((500, dim))
    tree = oracles.mst_oracle(coords)
    assert tree.total == pytest.approx(minimum_spanning_tree(squareform(pdist(coords))).sum(),
                                       rel=1e-12)
    assert tree.us.size == 499 and tree.longest == tree.lengths.max()


@pytest.mark.parametrize("dim", [2, 4])
def test_tree_oracle_rejects_a_swapped_edge(tmp_path, dim):
    rng = np.random.default_rng(dim)
    coords = rng.standard_normal((300, dim))
    weights = rng.uniform(0.5, 1.5, 300) if dim == 4 else None
    ev = workloads.write_event_file(tmp_path / "events.csv", coords, weights)
    spantree("stats", str(ev.path), "-o", str(tmp_path / "out"), cwd=tmp_path)
    tree_csv = tmp_path / "out" / "tree.csv"
    oracle = oracles.mst_oracle(coords)
    assert oracles.check_tree_csv(tree_csv, coords, weights, oracle) == []
    assert oracles.check_summary(tmp_path / "out" / "summary.json", 300, oracle) == []

    # drop the shortest tree edge and reconnect its two sides by the next
    # shortest pair: still a spanning tree, no longer minimal
    w = np.ones(300) if weights is None else weights

    def swap(rows):
        u, v = int(rows[0][0]), int(rows[0][1])
        kept = [(int(r[0]), int(r[1])) for r in rows[1:]]
        side = {u}
        grew = True
        while grew:
            grew = False
            for a, b in kept:
                if (a in side) != (b in side):
                    side |= {a, b}
                    grew = True
        best = min(((np.linalg.norm(coords[a] - coords[b]), a, b) for a in side
                    for b in range(300) if b not in side and (a, b) != (u, v) and (b, a) != (u, v)))
        _, a, b = best
        a, b = min(a, b), max(a, b)
        rows[0] = [str(a), str(b), repr(float(np.linalg.norm(coords[a] - coords[b]))),
                   repr(float(w[a] * w[b]))]

    rewrite_rows(tree_csv, swap)
    problems = oracles.check_tree_csv(tree_csv, coords, weights, oracle)
    assert len(problems) == 1 and "total length" in problems[0]


def test_comparison_oracle_rejects_a_perturbed_length(tmp_path):
    rng = np.random.default_rng(7)
    a = workloads.write_event_file(tmp_path / "a.csv", workloads.disc_coords(rng, 400))
    b = workloads.write_event_file(tmp_path / "b.csv", workloads.disc_coords(rng, 400))
    spantree("compare", str(a.path), str(b.path), "--both", "-o", str(tmp_path / "out"),
             cwd=tmp_path)
    table = tmp_path / "out" / "comparison_subject_vs_reference.csv"
    expected = oracles.comparison_oracle(a.coords, b.coords, oracles.mst_oracle(b.coords))
    assert oracles.check_comparison_csv(table, expected) == []

    def perturb(rows):
        rows[17][1] = repr(float(rows[17][1]) * (1 + 1e-7))

    rewrite_rows(table, perturb)
    problems = oracles.check_comparison_csv(table, expected)
    assert len(problems) == 1 and "connection_length" in problems[0]


def test_fit_oracle_rejects_a_shifted_alpha_hat(tmp_path):
    reference = json.loads((HERE / "fit_reference.json").read_text())["0"]
    result = {"mode": "both", "added_later": {"anything": 1}}
    for name, value in reference.items():
        section, key = name.split(".")
        result.setdefault(section, {})[key] = value
    path = tmp_path / "fit_result.json"
    path.write_text(json.dumps(result))
    assert oracles.check_fit_result(path, reference) == []

    result["augmented"]["alpha_hat"] *= 1 + 1e-7
    path.write_text(json.dumps(result))
    problems = oracles.check_fit_result(path, reference)
    assert len(problems) == 1 and "augmented.alpha_hat" in problems[0]


def test_fit_reference_covers_every_shift():
    reference = json.loads((HERE / "fit_reference.json").read_text())
    assert sorted(map(int, reference)) == list(range(workloads.FIT_SEEDS))


# ---------------------------------------------------------------------------
# inputs


def input_bytes(workload: str, seed: int, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    for index in range(2):
        workloads.make_job(workload, seed, index, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(tmp_path, workload):
    first = input_bytes(workload, 1, tmp_path / "a")
    again = input_bytes(workload, 1, tmp_path / "b")
    other = input_bytes(workload, 2, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)
