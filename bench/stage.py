#!/usr/bin/env python3
"""Run one matchltr CLI command in this process with the benchmark's spans installed.

    python3 bench/stage.py SPANS_JSON RUN_ID -- <matchltr arguments>

The traced cli-500 run starts each stage this way instead of as
``python -m matchltr.cli``; the spans go to SPANS_JSON when the command ends.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
from matchltr import cli  # noqa: E402


def main(argv) -> int:
    spans_path, run_id, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: stage.py SPANS_JSON RUN_ID -- <matchltr arguments>")
    tracer = tracing.Tracer(run_id)
    with tracing.installed(tracer):
        with tracer.span("cli.main"):
            code = cli.main(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
