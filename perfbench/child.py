"""One repetition of a workload, in a fresh process.

Usage: python3 child.py SPEC.json

Imports ``pickands.cli`` from the spec's source directory, prints ``ready``
on stdout (the parent times set-up up to that line), then calls
``pickands.cli.main(argv)`` for each invocation of the spec and writes one
JSON result file. With ``trace`` set, the layer wrappers of ``spans.py`` are
installed after the ready line, so set-up time is never traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    try:
        import pickands.cli as cli
    except ImportError as exc:
        print(f"cannot import pickands.cli from {src}: {exc}", file=sys.stderr)
        return 3
    if src not in Path(cli.__file__).resolve().parents:
        print(f"pickands.cli was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    # Records go to --out files; anything else the program prints goes to stderr
    # so the ready pipe carries nothing else.
    sys.stdout = sys.stderr

    rows = []
    for inv in spec["invocations"]:
        error = None
        span = tracer.span("cli.invocation", "cli", invocation=inv["name"]) if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                code = cli.main(inv["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of one invocation is a counted failure, not the end of the run
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
        rows.append({"name": inv["name"], "code": code, "wall_s": wall, "error": error})

    import numpy
    import scipy

    result = {
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": tracer.export() if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
