"""Long-lived efxcheck process for the warm workloads.

Reads one JSON message per line on stdin and answers each with one JSON
line on stdout.  A "run" message calls efxcheck.cli.main(argv) with stdout
and stderr captured, the way the test suite's run_cli helper does.

Messages: {"op": "run", "id": request id, "argv": [...]}, {"op": "builtins"},
{"op": "trace", "on": bool}, {"op": "take"} (spans and counters so far)
and {"op": "usage"} (CPU seconds and peak resident memory).  End of input
stops the process.

Run from the repository root: python3 perfbench/serve.py
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import spans


def _usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return {"cpu_s": cpu, "maxrss_kb": me.ru_maxrss}


def main() -> None:
    channel = sys.stdout
    import efxcheck.cli
    from efxcheck import verify

    tracer = spans.Tracer()
    uninstall = None
    for line in sys.stdin:
        message = json.loads(line)
        op = message["op"]
        reply: dict = {}
        if op == "run":
            out, err = io.StringIO(), io.StringIO()
            tracer.request = message["id"]
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    if uninstall:
                        tracer.begin("request")
                    try:
                        reply["code"] = efxcheck.cli.main(message["argv"])
                    finally:
                        if uninstall:
                            tracer.end()
            except Exception:
                reply["code"] = None
                reply["error"] = traceback.format_exc()
            reply["out"] = out.getvalue()
            reply["decode_calls"] = tracer.counters["core.decode_calls"]
        elif op == "builtins":
            for kind in ("ordinal", "subadditive", "coverage"):
                verify.builtin(kind)
        elif op == "trace":
            if message["on"] and uninstall is None:
                uninstall = spans.install(tracer)
            elif not message["on"] and uninstall is not None:
                uninstall()
                uninstall = None
        elif op == "take":
            reply["spans"], reply["counters"] = tracer.take()
        elif op == "usage":
            reply = _usage()
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()
