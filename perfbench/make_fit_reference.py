"""Record the fit oracle's reference values: one ``spantree fit`` per config shift.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_fit_reference.py

It writes ``perfbench/fit_reference.json``. The benchmark compares every
``fit-demo`` result against this table, so regenerate it only when a fit
output is meant to change. It runs one fit per available CPU at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reference_for(shift: int, tmp: Path) -> dict[str, float]:
    workdir = tmp / f"shift{shift}"
    workdir.mkdir()
    cfg = workdir / "fit_demo.json"
    cfg.write_text(json.dumps(workloads.fit_demo_config(shift)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", workloads.LAUNCHER, "fit", str(cfg), "--mode", "both",
            "-o", str(workdir)]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return oracles.fit_fields(json.loads((workdir / "fit_result.json").read_text()))


def main() -> int:
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
            futures = [pool.submit(reference_for, s, Path(tmp)) for s in range(workloads.FIT_SEEDS)]
            table = {str(s): f.result() for s, f in enumerate(futures)}
    (HERE / "fit_reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} reference fits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
