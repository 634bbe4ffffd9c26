"""Run every workload plainly and traced, and print every metric by name and unit.

    python3 perfbench/report.py

Each ``run.py`` report is passed through as it arrives; a table of all
end-to-end and per-layer metrics across the workloads follows at the end.
Every run uses seed ``SEED`` and the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    table: dict[str, dict[str, float]] = {}
    units: dict[str, str] = {}
    verdicts = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(SECONDS),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"run.py failed on {workload} (trace {trace}), exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            verdicts.append(f"{workload} trace={trace}: correct={result['correct']} "
                            f"failed={result['failed']}/{result['attempted']}")
            if trace == 0:
                table.setdefault("error_rate", {})[workload] = result["failed"] / result["attempted"]
                units["error_rate"] = "ratio"
            for name, metric in result["metrics"].items():
                table.setdefault(name, {})[workload] = metric["value"]
                units[name] = metric["unit"]

    print()
    print(f"{'metric':<28} {'unit':<6} " + " ".join(f"{w:>17}" for w in WORKLOADS))
    for name, row in table.items():
        cells = " ".join(f"{row.get(w, float('nan')):>17.6g}" for w in WORKLOADS)
        print(f"{name:<28} {units[name]:<6} {cells}")
    print("\n".join(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
