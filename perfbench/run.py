"""efxcheck benchmark: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads (see perfbench/README.md):

* cold-cli: one fresh efxcheck process per request, as the console script
  starts it;
* warm-builtin: one long-lived process serves the built-in command mix;
* template-sweep: one long-lived process verifies never-repeated template
  documents.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
replays the first blocks of the same seeded deck, alternating untraced and
traced passes, and reports per-layer metrics.  Every verdict is checked
against a known answer after the timed region.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  A results file
with machine facts, and for a traced run a spans file, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path

import answers
import decks
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# efxcheck runs as an installed package would: from src/, with its bytecode
# cache written on first import (the set-up) and read from then on.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = str(ROOT / "src")
# The import path of the efxcheck console script (efxcheck.cli:entrypoint).
LAUNCH = "import sys; from efxcheck.cli import entrypoint; sys.argv[0] = 'efxcheck'; sys.exit(entrypoint())"
REQUEST_TIMEOUT_S = 60
# Peak memory is read after this many timed requests, so that it does not
# depend on how many the host let a run serve: efxcheck keeps every profile
# it has seen, so on template-sweep memory grows with each request.
RSS_REQUESTS = 200
SETUPS = 5
FLOOR_RUNS = 5
TAIL_LADDER = (50, 75, 95, 99, 99.9)
COLD_WARMUP = ("verify", "ordinal", "--format", "json", "--witnesses", "0", "--workers", "1")

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "cpu_ms_per_verdict": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer time metrics: metric name -> span name.  A value is the mean
# self time of one call of that span over the traced spans of the run.
LAYER_TIMES = {
    "cli.parse_ms": "cli.parse",
    "cli.emit_ms": "cli.emit",
    "ordinal.parse_template_ms": "ordinal.parse_template",
    "ordinal.build_profile_ms": "ordinal.build_profile",
    "cardinal.build_subadditive_ms": "cardinal.build_subadditive",
    "cardinal.build_coverage_ms": "cardinal.build_coverage",
    "cardinal.exact_sign_ms": "cardinal.exact_sign",
    "tables.generate_ms": "tables.generate",
    "verify.properties_ordinal_ms": "verify.properties_ordinal",
    "verify.properties_subadditive_ms": "verify.properties_subadditive",
    "verify.properties_coverage_ms": "verify.properties_coverage",
}
for _scan in ("no_efx", "no_alpha_efx", "deficit", "cyclic", "first_pair", "size_props", "transfer"):
    LAYER_TIMES[f"verify.{_scan}_ms"] = f"verify.{_scan}"
    LAYER_TIMES[f"verify.{_scan}.w2_ms"] = f"verify.{_scan}.w2"

# Self times from `python -X importtime -c "import efxcheck.cli"`: metric
# name -> (module names, use cumulative time).
IMPORT_TIMES = {
    "import.verify_ms": (("efxcheck.verify",), False),
    "import.cardinal_ms": (("efxcheck.cardinal",), False),
    "import.ordinal_ms": (("efxcheck.ordinal",), False),
    "import.tables_ms": (("efxcheck.tables",), False),
    "import.cli_ms": (("efxcheck.cli",), False),
    "import.core_ms": (("efxcheck.core",), False),
    "import.pool_ms": (("concurrent.futures", "concurrent.futures.process"), True),
    "import.site_ms": (("site",), True),
}


# ---------------------------------------------------------------------------
# Running requests


class Server:
    """One long-lived efxcheck process (perfbench/serve.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "serve.py")],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, **message) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"efxcheck server exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_fresh(argv, spans_file: Path | None = None) -> tuple[int | None, str]:
    """One fresh efxcheck process; with spans_file, the traced driver."""
    if spans_file is None:
        command = [sys.executable, "-c", LAUNCH, *argv]
    else:
        command = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), *argv]
    try:
        done = subprocess.run(command, cwd=ROOT, env=ENV, capture_output=True, timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout.decode("utf-8", "replace")


def children_usage() -> tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Workload:
    """Shared loop, checks and metrics; subclasses say how a request runs."""

    block_prefix = 1  # blocks replayed by a traced run

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.blocks = self.make_deck()
        self.server: Server | None = None
        self.sent = 0  # requests sent so far; the next one's id

    # Hooks ----------------------------------------------------------------

    def make_deck(self) -> list[list[decks.Request]]:
        raise NotImplementedError

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def execute(self, request: decks.Request, traced: bool) -> tuple[int | None, str, dict | None]:
        """Run one request: exit code, stdout, and for a traced request its
        spans and counters."""
        self.sent += 1
        reply = self.server.ask(op="run", id=str(self.sent), argv=list(request.argv))
        if reply.get("error"):
            print(reply["error"], file=sys.stderr)
        return reply["code"], reply["out"], {"decode_calls": reply["decode_calls"]} if traced else None

    def usage(self) -> tuple[float, int]:
        """CPU seconds so far and peak resident KB of the efxcheck process."""
        reply = self.server.ask(op="usage")
        return reply["cpu_s"], reply["maxrss_kb"]

    def set_trace(self, on: bool) -> None:
        self.server.ask(op="trace", on=on)

    def take_trace(self) -> tuple[list[list], dict]:
        reply = self.server.ask(op="take")
        return [reply["spans"]], reply["counters"]

    def oracle_answer(self, request: decks.Request):
        return None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # Measurement ---------------------------------------------------------

    def timed_setups(self) -> list[float]:
        times = []
        for index in range(SETUPS):
            if index:
                self.close()
            started = time.perf_counter()
            self.setup(traced=False)
            times.append(time.perf_counter() - started)
        return times

    def deck_cycle(self):
        return cycle(self.blocks)

    def timed_loop(self, seconds: float) -> tuple[list, list[float], float, int]:
        """Closed loop over whole blocks until the time is up.  Returns the
        records, the wall seconds of each block, the CPU seconds used and
        the peak resident KB once RSS_REQUESTS requests are done (at the
        end, if fewer)."""
        records, block_seconds, maxrss_kb = [], [], None
        cpu_before, _ = self.usage()
        started = time.perf_counter()
        for block in self.deck_cycle():
            block_started = time.perf_counter()
            if block_started - started >= seconds:
                break
            for request in block:
                decks.guard_workers(request)
                sent = time.perf_counter()
                code, out, _ = self.execute(request, traced=False)
                records.append((request, time.perf_counter() - sent, code, out))
            block_seconds.append(time.perf_counter() - block_started)
            if maxrss_kb is None and len(records) >= RSS_REQUESTS:
                _, maxrss_kb = self.usage()
        cpu_after, last_maxrss_kb = self.usage()
        return records, block_seconds, cpu_after - cpu_before, maxrss_kb or last_maxrss_kb

    def failures(self, records) -> list[str | None]:
        """Per record: None, or why the request counts as failed.  Known
        answers first; then stdout must repeat byte for byte for every
        request that differs at most in --workers."""
        seen: dict[tuple, str] = {}
        reasons = []
        for request, _, code, out in records:
            reason = answers.check(request, code, out, self.oracle_answer(request))
            earlier = seen.setdefault(request.same_output_key, out)
            if reason is None and earlier != out:
                reason = "stdout differs from an identical earlier request"
            reasons.append(reason and f"{' '.join(request.argv)}: {reason}")
        return reasons


class ColdCli(Workload):
    def make_deck(self):
        workers = tuple(range(1, decks.max_workers() + 1))
        return decks.builtin_deck(self.seed, decks.COLD_COMMANDS, workers)

    def setup(self, traced):
        request = decks.Request("verify", COLD_WARMUP, "json", 1)
        code, out = run_fresh(COLD_WARMUP)
        if answers.check(request, code, out):
            raise RuntimeError(f"warm-up request failed with exit code {code}")

    def execute(self, request, traced):
        if not traced:
            return (*run_fresh(request.argv), None)
        self.sent += 1
        spans_file = self.work / f"spans-{self.sent}.json"
        code, out = run_fresh(request.argv, spans_file)
        try:
            with open(spans_file, encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, ValueError):
            trace = {"spans": [], "counters": {}}
        trace["decode_calls"] = trace["counters"].get("core.decode_calls", 0)
        return code, out, trace

    def usage(self):
        return children_usage()

    def set_trace(self, on):
        pass


class WarmBuiltin(Workload):
    block_prefix = 2

    def make_deck(self):
        return decks.builtin_deck(self.seed, decks.BUILTIN_COMMANDS, (1,))

    def setup(self, traced):
        self.server = Server()
        self.server.ask(op="trace", on=traced)
        self.server.ask(op="builtins")
        self.server.ask(op="trace", on=False)
        for request in self.blocks[0]:
            code, out, _ = self.execute(request, traced=False)
            if answers.check(request, code, out):
                raise RuntimeError(f"warm-up request {' '.join(request.argv)} failed")


class TemplateSweep(Workload):
    block_prefix = 4
    docs_per_second = 150  # documents written per measured second; about 5x the seed's rate

    def __init__(self, seed, work, seconds, traced):
        self.n_blocks = self.block_prefix if traced else math.ceil(seconds * self.docs_per_second / 10)
        super().__init__(seed, work)
        self._answers: dict[str, object] = {}

    def make_deck(self):
        base = decks.bundled_doc(ROOT)
        blocks = decks.template_deck(self.seed, base, self.n_blocks)
        written = []
        for b, block in enumerate(blocks):
            placed = []
            for r, request in enumerate(block):
                path = self.work / f"doc-{b:05d}-{r}.json"
                path.write_text(json.dumps(request.doc, indent=2, sort_keys=True), encoding="utf-8")
                placed.append(decks.with_path(request, os.path.relpath(path, ROOT)))
            written.append(placed)
        return written

    def deck_cycle(self):
        return iter(self.blocks)  # documents are never repeated

    def setup(self, traced):
        self.server = Server()
        for action in ("verify", "properties"):
            argv = ["template", decks.BUNDLED, action, "--format", "json"]
            if self.server.ask(op="run", id="warmup", argv=argv)["code"] != 0:
                raise RuntimeError(f"warm-up request {' '.join(argv)} failed")

    def oracle_answer(self, request):
        path = request.argv[1]
        if path not in self._answers:
            if request.kind == "template_verify":
                self._answers[path] = oracle.efx_count(request.doc)
            else:
                self._answers[path] = oracle.support_collapse(request.doc)
        return self._answers[path]


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER that
    still has at least ten samples beyond it (nearest-rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50, statistics.median(ordered))
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, dict, list, list]:
    setups = workload.timed_setups()
    records, block_seconds, cpu_s, maxrss_kb = workload.timed_loop(seconds)
    workload.close()
    reasons = workload.failures(records)
    attempted = len(records)
    failed = sum(1 for r in reasons if r)
    latencies = [latency for _, latency, _, _ in records]
    percentile, tail_s = tail(latencies)
    metrics = {
        "verdicts_per_s": (attempted - failed) / sum(block_seconds),
        "verdict_ms_p50": statistics.median(latencies) * 1000,
        "verdict_ms_tail": tail_s * 1000,
        "cpu_ms_per_verdict": cpu_s * 1000 / attempted,
        "peak_rss_mb": maxrss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "block_seconds": block_seconds,
        "latencies_ms": [round(latency * 1000, 3) for latency in latencies],
        "samples": {
            "verdicts_per_s": attempted - failed,
            "verdict_ms_p50": attempted,
            "verdict_ms_tail": attempted,
            "cpu_ms_per_verdict": attempted,
            "peak_rss_mb": 1,
            "setup_s": len(setups),
        },
        "tail_percentile": percentile,
        "failed_ratio": failed / attempted,
        "setups_s": setups,
    }
    return metrics, detail, reasons, []


def self_times(span_lists, into: dict[str, list]) -> None:
    """Add each span's self time (its duration minus its children's) and
    one call to into[name]."""
    for spans in span_lists:
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            total = into.setdefault(name, [0.0, 0])
            total[0] += end - start - children[index]
            total[1] += 1


def floors() -> dict[str, float]:
    """Fresh-process costs no change to efxcheck's code can remove, and
    the import broken down by module."""
    def fresh(command) -> subprocess.CompletedProcess:
        return subprocess.run(command, cwd=ROOT, env=ENV, capture_output=True, text=True, check=True)

    start_ms, import_ms, by_module = [], [], {name: [] for name in IMPORT_TIMES}
    timed_import = "import time; t = time.perf_counter(); import efxcheck.cli; print(time.perf_counter() - t)"
    for _ in range(FLOOR_RUNS):
        started = time.perf_counter()
        fresh([sys.executable, "-c", "pass"])
        start_ms.append((time.perf_counter() - started) * 1000)
        import_ms.append(float(fresh([sys.executable, "-c", timed_import]).stdout) * 1000)
        report = fresh([sys.executable, "-X", "importtime", "-c", "import efxcheck.cli"]).stderr
        rows = {}
        for line in report.splitlines():
            if line.startswith("import time:") and "|" in line and "self [us]" not in line:
                own, cumulative, name = line[len("import time:"):].split("|")
                rows[name.strip()] = (int(own), int(cumulative))
        for metric, (modules, cumulative) in IMPORT_TIMES.items():
            by_module[metric].append(sum(rows.get(m, (0, 0))[cumulative] for m in modules) / 1000)
    values = {"interp.start_ms": statistics.median(start_ms), "cli.import_ms": statistics.median(import_ms)}
    values.update({metric: statistics.median(v) for metric, v in by_module.items()})
    return values


def cold_probe(seed: int, work: Path) -> dict[str, list]:
    """Self times of the spans in one cold-cli block: every command, with
    one and two workers, each in a fresh traced process."""
    probe = ColdCli(seed, work)
    totals: dict[str, list] = {}
    for request in probe.blocks[0]:
        decks.guard_workers(request)
        _, _, trace = probe.execute(request, traced=True)
        self_times([trace["spans"]], totals)
    return totals


def per_layer(workload: Workload, seconds: float) -> tuple[dict, dict, list, list, dict]:
    """Replay the deck's first blocks, alternating untraced and traced
    passes; every traced pass must count exactly the same."""
    prefix = [r for block in workload.blocks[: workload.block_prefix] for r in block]
    workload.setup(traced=True)
    setup_spans, _ = workload.take_trace() if workload.server else ([], {})
    passes: list[dict] = []
    started = time.perf_counter()
    while len(passes) < 4 or time.perf_counter() - started < seconds:
        traced = len(passes) % 2 == 1
        workload.set_trace(traced)
        outputs, per_request = [], []
        pass_started = time.perf_counter()
        for request in prefix:
            decks.guard_workers(request)
            code, out, trace = workload.execute(request, traced)
            outputs.append((code, out))
            if traced:
                per_request.append(trace)
        wall = time.perf_counter() - pass_started
        entry = {"traced": traced, "wall": wall, "outputs": outputs}
        if traced:
            if workload.server:
                entry["spans"], entry["counters"] = workload.take_trace()
                calls = [t["decode_calls"] for t in per_request]
                entry["decode"] = [b - a for a, b in zip([0] + calls, calls)]
            else:
                entry["spans"] = [t["spans"] for t in per_request]
                entry["counters"] = {
                    key: sum(t["counters"][key] for t in per_request) for key in per_request[0]["counters"]
                }
                entry["decode"] = [t["decode_calls"] for t in per_request]
            workload.set_trace(False)
        passes.append(entry)
    workload.close()

    records = [
        (request, 0.0, code, out)
        for entry in passes
        for request, (code, out) in zip(prefix, entry["outputs"])
    ]
    # Each request recurs in every pass, so failures() also checks that the
    # traced passes print what the untraced ones do, request by request.
    reasons = workload.failures(records)
    problems = []
    traced_passes = [p for p in passes if p["traced"]]
    counted = [
        (p["counters"], [d for r, d in zip(prefix, p["decode"]) if r.workers == 1]) for p in traced_passes
    ]
    if any(c != counted[0] for c in counted):
        problems.append("counters differ between traced passes")

    totals: dict[str, list] = {}
    self_times(setup_spans, totals)
    for entry in traced_passes:
        self_times(entry["spans"], totals)
    # A layer this workload never calls is timed on a cold-cli block
    # instead, so that every figure is a measurement and none a constant 0.
    missing = [span for span in LAYER_TIMES.values() if span not in totals]
    if missing:
        probe = cold_probe(workload.seed, workload.work)
        totals.update({span: probe[span] for span in missing if span in probe})
    metrics = floors()
    for metric, span in LAYER_TIMES.items():
        seconds_total, calls = totals.get(span, (0.0, 0))
        metrics[metric] = seconds_total * 1000 / calls if calls else 0.0
    counters = traced_passes[0]["counters"]
    metrics.update({name: counters[name] for name in counters})
    single_worker = [(r, d) for r, d in zip(prefix, traced_passes[0]["decode"]) if r.workers == 1]
    for kind in decks.KINDS:
        calls = [d for r, d in single_worker if r.kind == kind]
        metrics[f"core.decode_calls.{kind}"] = sum(calls) / len(calls) if calls else 0.0
    untraced = statistics.median(p["wall"] for p in passes if not p["traced"])
    metrics["trace.overhead_pct"] = (statistics.median(p["wall"] for p in traced_passes) / untraced - 1) * 100
    detail = {
        "passes": len(passes),
        "requests_per_pass": len(prefix),
        "timed_on_cold_probe": missing,
        "span_totals": {name: {"self_ms": s * 1000, "calls": c} for name, (s, c) in sorted(totals.items())},
    }
    all_spans = {"setup": setup_spans, "passes": [p["spans"] for p in traced_passes]}
    return metrics, detail, reasons, problems, all_spans


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


# ---------------------------------------------------------------------------
# Machine facts and output


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def steal_ticks() -> int:
    """Clock ticks the host has taken from this machine's CPUs (the
    "steal" column of /proc/stat); 0 where that is not readable."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold-cli", "warm-builtin", "template-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "efxcheck" / "cli.py").is_file():
        print(f"perfbench: no efxcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": decks.nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "loadavg_before": os.getloadavg(),
    }
    steal_before, wall_before = steal_ticks(), time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    workload = None
    try:
        if args.workload == "cold-cli":
            workload = ColdCli(args.seed, work)
        elif args.workload == "warm-builtin":
            workload = WarmBuiltin(args.seed, work)
        else:
            workload = TemplateSweep(args.seed, work, args.seconds, args.trace)
        if args.trace:
            values, detail, reasons, problems, all_spans = per_layer(workload, args.seconds)
            units = {name: layer_unit(name) for name in values}
        else:
            values, detail, reasons, problems = end_to_end(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "template-sweep":
        problems.extend(oracle.self_test(decks.bundled_doc(ROOT)))
    facts["loadavg_after"] = os.getloadavg()
    # Share of the CPUs' time the host ran something else: a high value marks
    # a run whose times say more about the host than about efxcheck.
    ticks = os.sysconf("SC_CLK_TCK") * (time.monotonic() - wall_before) * decks.nproc()
    facts["cpu_steal_pct"] = 100 * (steal_ticks() - steal_before) / ticks
    attempted = len(reasons)
    failed = sum(1 for r in reasons if r)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures = problems + [r for r in reasons if r][:20]
    result = {"facts": facts, "metrics": values, "detail": detail, "failures": failures}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(all_spans), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {attempted} requests, {failed} failed")
    for name, value in values.items():
        samples = detail.get("samples", {}).get(name)
        note = f"  (n={samples})" if samples is not None else ""
        if name == "verdict_ms_tail":
            note += f"  p{detail['tail_percentile']}"
        print(f"  {name:34s} {value:14.4f} {units[name]}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':34s} {detail['failed_ratio']:14.4f} ratio  ({failed}/{attempted})")
    for reason in failures:
        print(f"  FAILED {reason}")
    print("machine " + json.dumps(facts))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
