"""One fresh efxcheck process with spans, for the traced cold-cli replay.

Runs efxcheck.cli.main on the given arguments exactly as the console
script would, with the import and every layer call wrapped in spans, then
writes the spans and counters to SPANS_FILE as JSON.  Stdout and the exit
code are efxcheck's own.

Usage, from the repository root with PYTHONPATH=src:
    python3 perfbench/traced_cli.py SPANS_FILE efxcheck-arguments...
"""

from __future__ import annotations

import json
import os
import sys

import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.request = os.path.splitext(os.path.basename(spans_path))[0]
    if "--workers" in argv:
        tracer.workers = int(argv[argv.index("--workers") + 1])
    tracer.begin("cli.import")
    import efxcheck.cli

    tracer.end()
    uninstall = spans.install(tracer)
    tracer.begin("request")
    try:
        code = efxcheck.cli.main(argv)
    finally:
        tracer.end()
        uninstall()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
