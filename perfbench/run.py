"""spantree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
taken from ``src/`` beside this directory. The run writes its inputs from
the seed (untimed setup), then runs the workload's ``spantree`` command
in a fresh process on each of the workload's fixed list of inputs, in
whole passes over the list, until ``--seconds`` is used up. Every output is
checked by ``oracles``. Each line before the last is a readable report; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` and
``peak_rss_mb`` (medians over the commands) and ``setup_s`` (median wall
time of a fresh ``spantree --version``, probed between the commands). With
``--trace 1`` each input is run once plainly and once through
``traced_cli.py``, alternating which goes first, and the metrics are the
per-layer ones from ``layers.PER_LAYER_UNITS``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import layers
import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 6  # at least this many per run, spread over its commands
COMMAND_TIMEOUT_S = 100.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def say(line: str = "") -> None:
    print(f"# {line}", flush=True)


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float


def run_command(argv: list[str], log: Path, env: dict) -> Outcome:
    """Run one command to completion and collect it with ``os.wait4``.

    ``wait4`` gives the resources of this child alone; ``RUSAGE_CHILDREN``
    would keep the maximum over every child and hide a regression.
    """
    with open(log, "wb") as fh:
        actions = [(os.POSIX_SPAWN_DUP2, fh.fileno(), 1), (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - start
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return Outcome(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime)


# ---------------------------------------------------------------------------
# environment stamp


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_state() -> str:
    """Available memory and load average, read from /proc."""
    try:
        meminfo = Path("/proc/meminfo").read_text().splitlines()
        avail = next(int(l.split()[1]) for l in meminfo if l.startswith("MemAvailable:"))
        load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except (OSError, StopIteration, ValueError):
        return "unavailable"
    return f"mem_available_mb={avail / 1024:.0f} loadavg={load}"


def stamp() -> None:
    say(f"env nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} git={git_sha()}")
    say(f"env start {machine_state()}")


# ---------------------------------------------------------------------------
# inputs and checks


class Checker:
    """Oracle values for each input, computed in setup before its command runs."""

    def __init__(self) -> None:
        self.trees = {}
        self.candidates = {}
        self.comparisons = {}
        self.fit_reference = json.loads((HERE / "fit_reference.json").read_text())

    def prepare(self, job) -> None:
        for ev in job.events:
            tree = oracles.mst_oracle(ev.coords)
            self.trees[ev.path] = tree
            self.candidates[ev.path] = oracles.candidates_needed(ev.coords, tree.longest)
            say(f"input {ev.path.name} m={ev.m} d={ev.d} bytes={ev.path.stat().st_size} "
                f"candidates_needed={self.candidates[ev.path]} "
                f"({self.candidates[ev.path] / ev.m:.1f}/point)")
        if len(job.events) == 2:
            a, b = job.events
            self.comparisons[job.outdir] = {
                "subject_vs_reference":
                    oracles.comparison_oracle(a.coords, b.coords, self.trees[b.path]),
                "reference_vs_subject":
                    oracles.comparison_oracle(b.coords, a.coords, self.trees[a.path]),
            }
        if job.fit_shift is not None:
            cfg = Path(job.argv[1])
            say(f"input {cfg.name} config shift={job.fit_shift} bytes={cfg.stat().st_size} "
                "(samples generated by the program)")

    def job_candidates(self, job) -> int:
        return sum(self.candidates[ev.path] for ev in job.events)

    def check(self, job) -> list[str]:
        out = job.outdir
        if job.fit_shift is not None:
            return oracles.check_fit_result(out / "fit_result.json",
                                            self.fit_reference[str(job.fit_shift)])
        if job.outdir in self.comparisons:
            return [p for tag, oracle in self.comparisons[job.outdir].items()
                    for p in oracles.check_comparison_csv(out / f"comparison_{tag}.csv", oracle)]
        (ev,) = job.events
        tree = self.trees[ev.path]
        return (oracles.check_tree_csv(out / "tree.csv", ev.coords, ev.weights, tree)
                + oracles.check_summary(out / "summary.json", ev.m, tree))


# ---------------------------------------------------------------------------
# measurement


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.launcher = [sys.executable, "-c", workloads.LAUNCHER]
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def _log(self) -> Path:
        self._n += 1
        return self.workdir / f"cmd{self._n}.log"

    def _record(self, outcome: Outcome, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if outcome.exit_code != 0:
            problems = [f"exit code {outcome.exit_code}", *problems]
        if problems:
            self.failed += 1
        say(f"{what} wall_s={outcome.wall_s:.4f} peak_rss_mb={outcome.peak_rss_mb:.1f} "
            f"cpu_s={outcome.cpu_s:.3f} " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
        return not problems

    def probe_setup(self) -> float:
        log = self._log()
        outcome = run_command([*self.launcher, "--version"], log, self.env)
        ok = outcome.exit_code == 0 and log.read_text().startswith("spantree ")
        self._record(outcome, [] if ok else ["no version line"], "setup --version")
        return outcome.wall_s

    def plain(self, job) -> Outcome:
        # an empty output directory, so a check cannot read an earlier command's file
        shutil.rmtree(job.outdir, ignore_errors=True)
        log = self._log()
        outcome = run_command([*self.launcher, *job.argv], log, self.env)
        problems = self.checker.check(job) if outcome.exit_code == 0 else [_tail(log)]
        self._record(outcome, problems, f"{job.argv[0]} {job.outdir.name}")
        return outcome

    def traced(self, job, capture: Path | None) -> tuple[Outcome, dict | None]:
        shutil.rmtree(job.outdir, ignore_errors=True)
        log = self._log()
        spans = self.workdir / f"spans{self._n}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        if capture is not None:
            argv += ["--capture", str(capture)]
        outcome = run_command([*argv, "--", *job.argv], log, self.env)
        problems = self.checker.check(job) if outcome.exit_code == 0 else [_tail(log)]
        ok = self._record(outcome, problems, f"traced {job.argv[0]} {job.outdir.name}")
        return outcome, (json.loads(spans.read_text()) if ok else None)

    def measure(self, step) -> None:
        """Run ``step(job)`` on the workload's fixed inputs, in whole passes.

        Writing the inputs and their oracle values is untimed setup, done
        once before the first pass. The first pass always runs; another
        starts only if one more like the last still fits in ``seconds``.
        """
        jobs = [workloads.make_job(self.workload, self.seed, index, self.workdir)
                for index in range(workloads.INPUTS[self.workload])]
        for job in jobs:
            self.checker.prepare(job)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for job in jobs:
                step(job)
            now = time.perf_counter()
            if now - start + (now - pass_start) > self.seconds:
                return


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "no output"


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (n={n} < 11)"
    p = 100 * (n - 10) // n
    return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f}"


def end_to_end(run: Run) -> dict[str, float]:
    setup: list[float] = []
    outcomes: list[Outcome] = []
    probes = -(-SETUP_PROBES // workloads.INPUTS[run.workload])

    def step(job) -> None:
        # probes between the commands sample the same machine phases as they do
        setup.extend(run.probe_setup() for _ in range(probes))
        outcomes.append(run.plain(job))

    run.measure(step)
    walls = [o.wall_s for o in outcomes]
    rss = [o.peak_rss_mb for o in outcomes]
    say(f"wall_s median={statistics.median(walls):.4f} s, tail {tail_percentile(walls)}, "
        f"max={max(walls):.4f} s, n={len(walls)}")
    say(f"peak_rss_mb median={statistics.median(rss):.1f} MB, max={max(rss):.1f} MB, n={len(rss)}")
    say(f"setup_s median={statistics.median(setup):.4f} s, n={len(setup)}")
    say(f"process.cpu_s median={statistics.median(o.cpu_s for o in outcomes):.4f} s "
        "(child user+sys; not an end-to-end metric)")
    return {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup)}


def per_layer(run: Run) -> dict[str, float]:
    rows: list[dict[str, float]] = []
    pairs: list[tuple[Outcome, Outcome]] = []
    traces: list[tuple[list, dict]] = []

    def step(job) -> None:
        # fit-demo generates its samples itself: save them to characterize them
        capture = job.outdir.with_suffix(".npz") if job.fit_shift is not None else None
        # alternate which side runs first, so an order effect cancels in the overhead
        if len(pairs) % 2 == 0:
            plain = run.plain(job)
            traced, payload = run.traced(job, capture)
        else:
            traced, payload = run.traced(job, capture)
            plain = run.plain(job)
        pairs.append((plain, traced))
        if payload is None:
            return
        spans = tracer.spans_from_dict(payload)
        traces.append((spans, payload))
        row = layers.span_metrics(spans)
        row["cli.import_s"] = payload["import_s"]
        row["process.cpu_s"] = plain.cpu_s
        row["trace.overhead_s"] = traced.wall_s - plain.wall_s
        if capture is None:
            row["mst.candidates_needed"] = run.checker.job_candidates(job)
        else:
            with numpy.load(capture) as saved:
                row["mst.candidates_needed"] = sum(
                    oracles.candidates_needed(c, oracles.mst_oracle(c).longest)
                    for c in (saved[k] for k in saved.files))
        rows.append(row)

    run.measure(step)
    if not rows:
        return {}
    metrics = {name: statistics.median(r[name] for r in rows) for name in layers.PER_LAYER_UNITS}
    spans, payload = traces[-1]
    report_layers(spans, payload, metrics, pairs)
    return metrics


def report_layers(spans, payload, metrics, pairs) -> None:
    totals = layers.layer_totals(spans)
    root = layers.root_span(spans)
    say("traced command (last one): layer self_s calls")
    for layer, (self_s, calls) in totals.items():
        say(f"  {layer:<11} {self_s:10.4f} {calls:6d}")
    summed = sum(t for t, _ in totals.values())
    say(f"layer self times sum to {summed:.6f} s; traced command time {root.duration:.6f} s "
        f"(difference {summed - root.duration:+.2e} s)")
    missing = ", ".join(payload["missing"]) or "none"
    say(f"coverage: {metrics['trace.coverage']:.1%} of traced command time inside wrapped calls; "
        f"missing call sites: {missing}")
    overheads = [t.wall_s - p.wall_s for p, t in pairs]
    say(f"tracing overhead median {statistics.median(overheads):+.4f} s over {len(pairs)} "
        "plain/traced pairs on the same input")
    for name, unit in layers.PER_LAYER_UNITS.items():
        say(f"  {name} = {metrics[name]:.6g} {unit}")


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one spantree benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="input seed (0: the shipped fit demo)")
    p.add_argument("--seconds", type=float, default=35.0, help="measurement time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spantree" / "cli.py").is_file():
        print(f"error: no spantree sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    say(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    stamp()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        metrics = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    say(f"error_rate = {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):g} "
        "(ratio; failed commands over attempted, setup probes included)")
    say(f"env end {machine_state()}")
    if not metrics:
        print("error: no traced command succeeded", file=sys.stderr)
        return 1
    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
