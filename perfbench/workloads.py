"""Workload definitions: seeded inputs and the spantree command for each.

Every input file is generated here with numpy's PCG64, never with
spantree's own generators, so a change to ``spantree.generators`` cannot
change what the tree-building workloads read. ``fit-demo`` is the exception
by design: its run config tells the program to generate its own samples,
and the benchmark only shifts the seeds in that config.

A run's inputs are a fixed list, ``INPUTS[workload]`` long, derived from
the run's seed: input ``index`` is the same on every commit, and a run
covers the whole list however fast the program is. The median a run
reports is taken over several samples of the input distribution rather
than one. That matters most for ``fit-demo``: about one calibration tree
in five needs more than Kruskal's first candidate prefix, and each such
tree costs about four times as much, so the command time follows how many
of its 37 trees do.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# inputs per run: one pass over them takes about 30 s on a 2-CPU machine
INPUTS = {"fit-demo": 4, "stats-disc-16k": 7, "compare-disc-6k": 3}
WORKLOADS = tuple(INPUTS)

# the command a console-script install of spantree would run
LAUNCHER = "import sys; from spantree.cli import main; sys.exit(main())"

# Shift 0 of the fit-demo config is the shipped one; shift s adds s to the
# master seed and to each of the three generator seeds.
FIT_DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fit_demo.json"

# The fit oracle holds reference values for this many config shifts. Input i
# of seed s uses shift (7 * s + i) mod FIT_SEEDS: seed 0 starts with the
# shipped config, and nearby seeds share no config.
FIT_SEEDS = 100


@dataclass(frozen=True)
class EventFile:
    """One generated input file and the coordinates it holds."""

    path: Path
    coords: np.ndarray
    weights: np.ndarray | None

    @property
    def m(self) -> int:
        return int(self.coords.shape[0])

    @property
    def d(self) -> int:
        return int(self.coords.shape[1])


@dataclass(frozen=True)
class Job:
    """One command of a workload: its argv tail and what to check after it."""

    argv: list[str]
    outdir: Path
    events: tuple[EventFile, ...] = ()
    fit_shift: int | None = None


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    # keyed by the name, so adding or removing a workload changes no other's inputs
    key = zlib.crc32(workload.encode())
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key, index])))


def disc_coords(rng: np.random.Generator, count: int, radius: float = 20.0, sigma: float = 0.2):
    """Uniform-over-area disc with Gaussian jitter (the shape of the disc preset)."""
    u = rng.random((count, 2))
    r = radius * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    xy = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return xy + rng.normal(0.0, sigma, size=xy.shape)


def format_events(coords: np.ndarray, weights: np.ndarray | None) -> str:
    """Event table text: header, then shortest-round-trip floats."""
    d = coords.shape[1]
    names = ["x", "y"] if d == 2 else [f"x{i}" for i in range(d)]
    table = coords if weights is None else np.column_stack([coords, weights])
    if weights is not None:
        names.append("weight")
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def write_event_file(path: Path, coords: np.ndarray, weights: np.ndarray | None = None) -> EventFile:
    path.write_text(format_events(coords, weights))
    return EventFile(path, coords, weights)


def fit_demo_config(shift: int) -> dict:
    """The shipped demo config with every seed shifted by ``shift``."""
    cfg = json.loads(FIT_DEMO_CONFIG.read_text())
    cfg["seed"] += shift
    inputs = cfg["inputs"]
    inputs["background"]["generator"]["seed"] += shift
    inputs["signal"]["generator"]["seed"] += shift
    inputs["observed"]["two_component"]["seed"] += shift
    return cfg


def make_job(workload: str, seed: int, index: int, workdir: Path) -> Job:
    """Write input ``index`` of a run under ``workdir`` and return its command."""
    rng = _rng(seed, workload, index)
    out = workdir / f"out{index}"
    if workload == "fit-demo":
        shift = (7 * seed + index) % FIT_SEEDS
        cfg = workdir / f"fit_demo_{index}.json"
        cfg.write_text(json.dumps(fit_demo_config(shift), indent=2) + "\n")
        return Job(["fit", str(cfg), "--mode", "both", "-o", str(out)], out, fit_shift=shift)
    if workload == "stats-disc-16k":
        ev = write_event_file(workdir / f"disc16k_{index}.csv", disc_coords(rng, 16_000))
        return Job(["stats", str(ev.path), "-o", str(out)], out, (ev,))
    if workload == "compare-disc-6k":
        a = write_event_file(workdir / f"disc6k_{index}_a.csv", disc_coords(rng, 6_000))
        b = write_event_file(workdir / f"disc6k_{index}_b.csv", disc_coords(rng, 6_000))
        return Job(["compare", str(a.path), str(b.path), "--both", "-o", str(out)], out, (a, b))
    raise ValueError(f"unknown workload {workload!r}")
