"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py swaps module-level names of efxcheck.cli, .ordinal and
.verify for timed wrappers.  A renamed or moved name breaks the benchmark
without breaking any command, so this runs commands in-process with the
tracer installed and checks that it counted and changed no output byte.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from helpers import run_cli

import efxcheck

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
INSTANCE_PATH = str(Path(efxcheck.__file__).parent / "paper_instance.json")

COMMANDS = (
    ["verify", "ordinal"],
    ["lemmas", "--format", "json"],
    ["template", INSTANCE_PATH, "verify"],
    ["alpha-star"],
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_print_the_same_bytes_and_count_profiles():
    spans = _load_spans()
    untraced = [run_cli(argv)[:2] for argv in COMMANDS]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = [run_cli(argv)[:2] for argv in COMMANDS]
    finally:
        uninstall()
    assert traced == untraced
    assert tracer.counters["ordinal.profiles_built"] >= 1
    assert {span[0] for span in tracer.spans} >= {
        "cli.parse",
        "cli.emit",
        "verify.no_efx",
        "verify.lemmas",
        "verify.transfer",
        "verify.deficit",
        "ordinal.parse_template",
        "ordinal.build_profile",
    }
