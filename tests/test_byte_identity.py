"""Byte-identity regression: `spantree stats`, `build`, `compare` and `plot`
outputs pinned by sha256.

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
too, come from uniform draws and integers only. The compare cases run both
directions over two such discs at each k and edge pool, and the plot cases
render the stats outputs above; none of their files is built from ``np.log``.
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


# (k, edge pool) -> the digest of each file `compare --both` writes
COMPARE_DIGESTS = {
    (1, "reference"): {
        "comparison_reference_vs_subject.csv":
            "7baea64c9c64bad7d02d332321a7886152990e3db5ce1038a6dcc7f51f105a99",
        "comparison_subject_vs_reference.csv":
            "d743b54ac2b291adfe48de4fa1c4124a074079f3c6add7a30b805a98bc832188",
        "hist_connection_length_reference_vs_subject.csv":
            "da8abcbc8e4ff9c1ab6d38ae814633c90e1ffaab3c6b2e2197131c43cb245609",
        "hist_connection_length_subject_vs_reference.csv":
            "ce02969d75f74bb7df13f204f5881ef0e1ea554ebcc90a123ec07c91d1bd149a",
        "hist_connection_ratio_reference_vs_subject.csv":
            "69337f68afc8696e8a0f76bf5482ff51b471ecfb1efe4accd4a932468d739bf9",
        "hist_connection_ratio_subject_vs_reference.csv":
            "3ead6e02252ddb11dde39bd5d84127e3df0cdbddaafd79a5dab5158993fa3562",
    },
    (1, "subject"): {
        "comparison_reference_vs_subject.csv":
            "84cde57841b0fc136bb2a1d835e1610746c4b56a4ecccb6d3f871b504bd5020b",
        "comparison_subject_vs_reference.csv":
            "9dbb61e90a5531b2a5c69989ec076d12a143db88bdbbf537585c21f37c5f02ae",
        "hist_connection_length_reference_vs_subject.csv":
            "1439aaa91244e42fbb2f56f19f24e63edfa759240c476d04722c51f6b9273991",
        "hist_connection_length_subject_vs_reference.csv":
            "d6bcfcf2e69876f9df5f8df389a11f3ba94333131d207ca7c28d52323116595a",
        "hist_connection_ratio_reference_vs_subject.csv":
            "e215172001db107cf3b51ba7fd9b29eb1e443a85b9fdb07398c0ced447208fed",
        "hist_connection_ratio_subject_vs_reference.csv":
            "a49693655f2f889f1662c8aea7b373dd31f5c30489c849049e897ddb6ec17359",
    },
    (5, "reference"): {
        "comparison_reference_vs_subject.csv":
            "641a18a695c920a7da399ea1dece3d872ab880ca2471ae59e9678e56ed9090d7",
        "comparison_subject_vs_reference.csv":
            "aadc74982c30bd4a1fc03d2939d1b61446e1de5d69e0ca3bac5a3bb9f6eebffc",
        "hist_connection_length_reference_vs_subject.csv":
            "2c3c504133a4ec50ad735d1ba1e4c2ac71c73ff890eba82294b3be40cd802850",
        "hist_connection_length_subject_vs_reference.csv":
            "cf1e684d12055ac2109601b4e0e50ac466c94bb40e78c597abca61f026a67d3f",
        "hist_connection_ratio_reference_vs_subject.csv":
            "87e495465f00f8bc3e695a45ebd2b72eb016a792a6430d581139b2b1eae9e565",
        "hist_connection_ratio_subject_vs_reference.csv":
            "f63e075b8f63a3d801bf98c40a8da80fa8dc88002c1b3226f17995915b5e2c5c",
    },
    (5, "subject"): {
        "comparison_reference_vs_subject.csv":
            "86490ae2e9ff2f5d133ad121e98a126cd3807865a459da1c082f97d30518dc8d",
        "comparison_subject_vs_reference.csv":
            "82070776a4787b8e2522445b8d3dbff7a26ee5a024daef098ff4940c2c5bcd43",
        "hist_connection_length_reference_vs_subject.csv":
            "c7367fce9b956e47c1e5ee55f1611b0936a9a6fb7ca86b2a10d95730650669ae",
        "hist_connection_length_subject_vs_reference.csv":
            "31ba0bc45bbf5f597cbb01ac21a23f326726b0c8b8dea856275f79b984b749f0",
        "hist_connection_ratio_reference_vs_subject.csv":
            "fd4b9c97ddc4df7069241c0113f8272054f9b3467f604d61dc4d9288de679ce4",
        "hist_connection_ratio_subject_vs_reference.csv":
            "45014aa909a7a1b5f5154864f754e27cec870ebbd1baff5f277cf978f85f9122",
    },
}


@pytest.mark.parametrize("k,pool", sorted(COMPARE_DIGESTS))
def test_compare_outputs_byte_identical(tmp_path, k, pool):
    subject, reference, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "out"
    write_events(_disc(1500, 31), subject)
    write_events(_disc(2000, 32), reference)
    argv = ["compare", str(subject), str(reference), "--both", "--k", str(k), "--pool", pool]
    assert main(argv + ["-o", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == COMPARE_DIGESTS[k, pool]


PLOT_DIGESTS = {
    "tree.svg": "5cda8d00ea6cbe65dcdbf2d0b30e24cd822535560e82e613fd5a47ea91855c1f",
    "hist.svg": "2ab9859552f1873e33f2773e5d3e81365dbb389a7d1e5dbb3e9abdc3dce38a0e",
}


def test_plot_outputs_byte_identical(tmp_path):
    events, stats = tmp_path / "disc.csv", tmp_path / "stats"
    write_events(_disc(3000, 20240), events)
    assert main(["stats", str(events), "-o", str(stats)]) == 0
    tree, hist = tmp_path / "tree.svg", tmp_path / "hist.svg"
    assert main(["plot", "tree", "--events", str(events), "--tree", str(stats / "tree.csv"),
                 "-o", str(tree)]) == 0
    assert main(["plot", "hist", str(stats / "hist_edge_length.csv"),
                 str(stats / "hist_degree.csv"), "-o", str(hist)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tree, hist)}
    assert got == PLOT_DIGESTS
