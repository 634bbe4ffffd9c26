"""Byte-identity regression: `spantree stats` outputs pinned by sha256.

The digests were recorded before the tree merge, the tree storage and the
statistics' value representation were rewritten, so any change in a tree
edge, its order, a length or a histogram bin shows here. The input is a
seeded disc drawn by rejection from the square, which takes nothing but
IEEE arithmetic; files built from ``np.log`` are left out because its last
bit can differ between numpy builds. The branch histogram is one of them,
so the branch totals and weights it is built from are pinned instead, as
raw float64 bytes recorded from the per-branch objects the package once
returned.
"""

import hashlib

import numpy as np

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
