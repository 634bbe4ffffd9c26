"""Run one spantree CLI command in-process with a span around each layer call.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json [--capture COORDS.npz] -- ARGS...

ARGS are what ``spantree`` would get. The functions named in
``layers.WRAPS`` are rebound at their call sites in ``spantree.cli`` and
``spantree.analysis``; a site that no longer exists is listed as missing.
Spans stay in memory and are written to SPANS.json once the command ends,
with the in-process import time of ``spantree.cli``. ``--capture`` also
saves the coordinates of every tree build, so the caller can characterize
inputs the program generated itself. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1 :]
    spans_path = own[0]
    capture_path = own[own.index("--capture") + 1] if "--capture" in own else None

    start = time.perf_counter()
    import spantree.cli as cli
    import_s = time.perf_counter() - start
    from spantree import analysis

    from layers import ROOT_SPAN, WRAPS
    from tracer import Tracer

    tracer = Tracer(trace_id=spans_path)
    modules = {"cli": cli, "analysis": analysis}
    captured = []
    missing = []
    for site, fn_name, layer, counter in WRAPS:
        module = modules[site]
        fn = getattr(module, fn_name, None)
        if fn is None:
            missing.append(f"{site}.{fn_name}")
            continue
        if capture_path is not None and layer == "mst" and counter is not None:
            counter = _capturing(counter, captured)
        setattr(module, fn_name, tracer.wrap(fn, f"{layer}.{fn_name}", layer, _safe(counter)))

    root = tracer.open(ROOT_SPAN, "cli")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)

    payload = tracer.to_dict()
    payload.update(import_s=import_s, exit_code=code, missing=missing)
    with open(spans_path, "w") as fh:
        json.dump(payload, fh)
    if capture_path is not None:
        import numpy as np

        np.savez(capture_path, *captured)
    return code


def _safe(counter):
    """A counter that cannot fail the command: an API it does not know gives no counts."""
    if counter is None:
        return None

    def safe(args, kwargs, result):
        try:
            return counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            return {"uncounted": 1}

    return safe


def _capturing(counter, captured):
    def capture(args, kwargs, result):
        captured.append(args[0].coords)
        return counter(args, kwargs, result)

    return capture


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
