"""Golden stdout: every command's serialized output is pinned byte for byte.

golden_stdout.json maps each argv (template paths written as <name>
placeholders) to the sha256 of its stdout.  The digests were recorded
before the allocation scans were rebuilt around per-agent reduction
maxima, so any change to a report, a witness order or a rendered byte
shows up here.

To re-record after an intended output change, from the repository root:
    PYTHONPATH=src python tests/test_golden.py

Every other interpreter of Python 3.10 or later that is found (python3.N
on PATH, or a pyenv version) replays all the cases in one subprocess
that imports only the standard library and efxcheck, and must print the
same digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from glob import glob
from pathlib import Path

import pytest

from helpers import identical_agents_doc, mutated_pair_doc, run_cli, source_env

GOLDEN_PATH = Path(__file__).with_name("golden_stdout.json")

FORMATS = ("json", "csv", "markdown")
WITNESSES = ("0", "1", "10")
BUILTIN_COMMANDS = (
    ("verify", "ordinal"),
    ("verify", "subadditive"),
    ("verify", "coverage"),
    ("properties", "ordinal"),
    ("properties", "subadditive"),
    ("properties", "coverage"),
    ("lemmas",),
    ("alpha-star",),
    ("tables",),
)
# Both sides of the level base 2^(-1/6) ~ 0.890899, and every scale slack
# from 0 to the built-in top rank 7 (1/10 is below every reachable power).
ALPHAS = (
    "9/10", "0.95", "1", "lambda^1/2", "0.8909", "lambda^1", "1/2", "0.8908", "lambda^2",
    "lambda^3", "lambda^4", "lambda^5", "1/10",
)
# Single pair-rank cells of the built-in template, drawn once with a fixed
# seed from the mutations that do have EFX allocations, so that witness
# order is pinned on nonempty EFX sets.
MUTATIONS = (("B", "B", 3), ("B", "C", 4), ("A", "C", 4), ("B", "y", 5))


def _documents() -> dict[str, str]:
    from efxcheck.ordinal import bundled_instance_text

    docs = {"bundled": bundled_instance_text(), "identical": identical_agents_doc()}
    for first, second, rank in MUTATIONS:
        docs[f"mutated-{first}{second}{rank}"] = mutated_pair_doc(first, second, rank)
    return docs


def golden_cases() -> list[tuple[str, ...]]:
    commands = list(BUILTIN_COMMANDS)
    commands += [("verify", "subadditive", "--alpha", alpha) for alpha in ALPHAS]
    for name in _documents():
        commands += [("template", f"<{name}>", "verify"), ("template", f"<{name}>", "properties")]
    return [
        command + ("--format", fmt, "--witnesses", witnesses)
        for command in commands
        for fmt in FORMATS
        for witnesses in WITNESSES
    ]


def stdout_digest(case: tuple[str, ...], paths: dict[str, str]) -> str:
    argv = [paths.get(arg, arg) for arg in case]
    code, out, _ = run_cli(argv)
    assert code == 0, (case, out)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def write_documents(directory: Path) -> dict[str, str]:
    paths = {}
    for name, text in _documents().items():
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[f"<{name}>"] = str(path)
    return paths


@pytest.fixture(scope="module")
def document_paths(tmp_path_factory) -> dict[str, str]:
    return write_documents(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(case) for case in golden_cases())


@pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
def test_stdout_matches_golden(case, golden, document_paths):
    assert stdout_digest(case, document_paths) == golden[" ".join(case)]


# Run by another interpreter: reads a JSON list of argv on stdin and
# prints each command's exit code and stdout digest, one line each.
REPLAY = """
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from efxcheck.cli import main
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def other_interpreters() -> dict[str, str]:
    """Version string to path of each interpreter of Python 3.10 or later
    that starts and is not this one: python3.N on PATH, then pyenv's
    versions; the first path of each version."""
    directories = os.environ.get("PATH", "").split(os.pathsep)
    candidates = [os.path.join(directory, f"python3.{minor}") for minor in range(10, 20) for directory in directories]
    candidates += sorted(glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python")))
    found: dict[str, str] = {}
    for path in filter(lambda path: os.access(path, os.X_OK), candidates):
        try:
            done = subprocess.run(
                [path, "-S", "-c", "import sys; print(sys.version_info >= (3, 10)); print(sys.version)"],
                capture_output=True,
                text=True,
                timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        supported, _, version = done.stdout.partition("\n")
        version = version.strip()
        if done.returncode == 0 and supported == "True" and version != sys.version:
            found.setdefault(version, path)
    return found


def test_stdout_matches_golden_on_other_interpreters(golden, document_paths):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other interpreter of Python 3.10 or later found")
    cases = golden_cases()
    argvs = json.dumps([[document_paths.get(arg, arg) for arg in case] for case in cases])
    expected = [f"0 {golden[' '.join(case)]}" for case in cases]
    for version, path in interpreters.items():
        done = subprocess.run(
            [path, "-S", "-c", REPLAY], input=argvs, env=source_env(), capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, (version, done.stderr[-2000:])
        assert done.stdout.splitlines() == expected, version


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        paths = write_documents(Path(directory))
        digests = {" ".join(case): stdout_digest(case, paths) for case in golden_cases()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
