"""Run one hopfforge command line call with span tracing installed.

    python bench/clitrace.py SPANS_OUT COMMAND [ARGS...]

Behaves like ``python -m hopfforge.cli COMMAND [ARGS...]`` (same stdout,
stderr and exit code) and writes the call's spans to SPANS_OUT as JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from hopfforge import cli
    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    wall = perf_counter() - t0
    Path(out_path).write_text(
        json.dumps({"wall_s": wall, "spans": tracer.export()}),
        encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
