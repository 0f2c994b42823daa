"""One workload process: set up, then run the workload's CLI commands.

Started by run.py as ``python3 worker.py SPEC.json SPAWN`` in a fresh
interpreter with the BLAS thread counts pinned to 1. SPAWN is the monotonic
clock reading taken just before the process was started, so set-up time
counts interpreter start. The spec names the checkpoints to load during
set-up, the CLI commands, whether to trace, and where to write the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str, spawn: float) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import_start = time.perf_counter()
    import sparsemerge.cli
    from sparsemerge.params import load_checkpoint

    import_s = time.perf_counter() - import_start
    for path in spec["loads"]:
        load_checkpoint(path)
    result = {"setup_s": time.monotonic() - spawn, "import_s": import_s, "commands": []}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, selftest

        tracer = Tracer()
        result["trace_problems"] = [f"self-time self-test: {p}" for p in selftest()]
        result["trace_problems"] += [f"not wrapped: {r}" for r in tracer.install()]

    wall_start = time.perf_counter()
    for label, argv in spec["commands"]:
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = sparsemerge.cli.main(argv)
            error = ""
        except Exception:  # a crash is a failed command, reported, not fatal
            code, error = None, traceback.format_exc()
        result["commands"].append(
            {
                "label": label,
                "code": code,
                "error": error,
                "stdout": out.getvalue(),
                "seconds": time.perf_counter() - started,
            }
        )
    result["wall_s"] = time.perf_counter() - wall_start

    if tracer is not None:
        result["trace_problems"] += [f"not restored: {r}" for r in tracer.restore()]
        result["layers"] = tracer.layer_metrics(import_s)
        tracer.save_spans(Path(spec["result"]).with_name("spans.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
