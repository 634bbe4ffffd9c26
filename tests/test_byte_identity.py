"""Byte-identity regression: `spantree stats` and `spantree build` outputs
pinned by sha256.

The digests were recorded before the tree merge, the tree storage and the
statistics' value representation were rewritten, so any change in a tree
edge, its order, a length or a histogram bin shows here. The input is a
seeded disc drawn by rejection from the square, which takes nothing but
IEEE arithmetic; files built from ``np.log`` are left out because its last
bit can differ between numpy builds. The branch histogram is one of them,
so the branch totals and weights it is built from are pinned instead, as
raw float64 bytes recorded from the per-branch objects the package once
returned.

The build cases each take one path of the tree builder, and their inputs,
too, come from uniform draws and integers only.
"""

import hashlib

import numpy as np
import pytest

from spantree import PointSet, build_mst_kruskal, extract_branches
from spantree.cli import main
from spantree.io import write_events

DIGESTS = {
    "tree.csv": "37071b185298c209d66a9dfca2a6f427fd56ebfd78d71488fa75a374b8db3b36",
    "hist_edge_length.csv": "48ad7ec20eea87ba8a92ae5bfe2cb5a488d3bfcac443cda5e03f3b5e358a99d6",
    "hist_degree.csv": "bac483223b7c8f6685e5a103b8b414e4662ad6c99bd6b6debdc4ac3e5df07ccf",
}

BRANCH_DIGESTS = {
    "lengths": "610ec8c72ffa575d1523f1f82e8a9d10c3519ca0844989345348dcb4643d0e45",
    "weights": "732866a9085f291a3266750014d99fbc9019ba527dc24231ee914a8abf6521a2",
}


def _disc(count: int, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-20.0, 20.0, size=(2 * count, 2))
    xy = xy[(xy * xy).sum(axis=1) <= 400.0][:count]
    assert len(xy) == count
    return PointSet(xy, weights=rng.uniform(0.5, 1.5, size=count))


def test_stats_outputs_byte_identical(tmp_path):
    events = tmp_path / "disc.csv"
    write_events(_disc(3000, 20240), events)
    assert main(["stats", str(events), "-o", str(tmp_path / "out")]) == 0
    got = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in DIGESTS
    }
    assert got == DIGESTS


def test_branch_arrays_byte_identical():
    lengths, weights = extract_branches(build_mst_kruskal(_disc(3000, 20240)))
    got = {
        "lengths": hashlib.sha256(lengths.tobytes()).hexdigest(),
        "weights": hashlib.sha256(weights.tobytes()).hexdigest(),
    }
    assert got == BRANCH_DIGESTS


def _doubled_lattice() -> PointSet:
    # every site twice, in a fixed scrambled order: the short-edge pass runs
    # over the unit edges' ties after the duplicates collapse
    sites = np.indices((40, 40)).reshape(2, -1).T.astype(float)
    rows = np.repeat(sites, 2, axis=0)
    return PointSet(rows[np.arange(len(rows)) * 7919 % len(rows)])


def _clump_beside_background() -> PointSet:
    # the clump shares one cell at the background's radius, so the pass refuses
    rng = np.random.default_rng(5)
    return PointSet(np.vstack([rng.uniform(50.0, 50.001, (900, 2)),
                               rng.uniform(0.0, 100.0, (1100, 2))]))


def _far_clusters(size: int, seed: int) -> PointSet:
    # 30-point clusters take the 32/64 re-queries, 100-point ones the outside trees
    rng = np.random.default_rng(seed)
    corners = rng.uniform(0.0, 1000.0, (12, 1, 4))
    return PointSet((corners + rng.uniform(0.0, 1.0, (12, size, 4))).reshape(-1, 4))


def _line() -> PointSet:
    rng = np.random.default_rng(9)
    # integer positions: ties and duplicates on the line
    return PointSet(rng.integers(0, 500, (1000, 1)).astype(float),
                    weights=rng.uniform(0.5, 1.5, 1000))


BUILD_CASES = {
    "doubled-lattice-2d": _doubled_lattice,
    "clump-beside-background-2d": _clump_beside_background,
    "far-clusters-12x30-4d": lambda: _far_clusters(30, 2),
    "far-clusters-12x100-4d": lambda: _far_clusters(100, 3),
    "line-1d": _line,
}

BUILD_DIGESTS = {
    "doubled-lattice-2d": "5939d2f2472cd59d04c702a97ecb61fef9c6150a1266b34e1929bfa89d21e275",
    "clump-beside-background-2d": "083903ac798d39900f611d580afb68fbcdb2165b6089f041fcdb27817b09b648",
    "far-clusters-12x30-4d": "9b39484d1c46e5ffaf8a464aa89946c1887c722c9ab4beedf85107be5cf471bb",
    "far-clusters-12x100-4d": "7213b993b2dbac3085a73398fbb7321f71fb0d17edc8b36bbe1874bff93ee89f",
    "line-1d": "f558813a9f4df7972d793963a536269fba8bd81d8360341d778dfc4f2780aeea",
}


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_tree_byte_identical(tmp_path, name):
    events, tree = tmp_path / "events.csv", tmp_path / "tree.csv"
    write_events(BUILD_CASES[name](), events)
    assert main(["build", str(events), "-o", str(tree)]) == 0
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == BUILD_DIGESTS[name]
