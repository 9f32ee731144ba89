"""Spans and counters around the calls into each efxcheck module.

The tracer wraps module-level names that efxcheck's command handlers and
claim suites look up at call time, so a traced request runs the same code
path as an untraced one and prints the same bytes.  Nothing inside
efxcheck is edited: installing the tracer swaps names, uninstalling puts
the originals back.  Spans are kept in memory and written out by the
caller when the run ends.
"""

from __future__ import annotations

import time

N_ALLOCATIONS = 6561

# Allocation-universe scans.  On a request with --workers 2 their span
# names carry a ".w2" suffix, so the process pool's cost shows separately.
SCAN_SPANS = (
    "verify.no_efx",
    "verify.no_alpha_efx",
    "verify.deficit",
    "verify.cyclic",
    "verify.first_pair",
    "verify.size_props",
    "verify.transfer",
)

COUNTERS = (
    "core.decode_calls",
    "cardinal.exact_sign_calls",
    "ordinal.profiles_built",
    "verify.allocations_scanned",
    "verify.agent0_feasible",
)


class Tracer:
    """Span list and counters for one process.

    A span is [name, start, end, parent index, request id]; times are
    perf_counter seconds.  The request id and worker count are set by the
    caller before each request.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request: str = ""
        self.workers = 1
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Spans and counters so far; both start again from empty."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], dict.fromkeys(COUNTERS, 0)
        return spans, counters


def _wrap(tracer: Tracer, fn, name, after=None):
    scan = name in SCAN_SPANS

    def traced(*args, **kwargs):
        if callable(name):
            label = name(args)
        else:
            label = name + ".w2" if scan and tracer.workers > 1 else name
        tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if scan:
            tracer.counters["verify.allocations_scanned"] += N_ALLOCATIONS
        if after is not None:
            after(result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap efxcheck's layer entry points; returns a function that undoes it."""
    from efxcheck import cli, ordinal, verify

    def bump(key):
        def after(_result):
            tracer.counters[key] += 1
        return after

    def add_feasible0(report):
        tracer.counters["verify.agent0_feasible"] += sum(
            count for key, count in report.breakdown if key.startswith("feasible0")
        )

    decode = verify.allocation_from_counter

    def counted_decode(counter):
        tracer.counters["core.decode_calls"] += 1
        return decode(counter)

    plan = [
        (cli, "parse_config", "cli.parse", None),
        (cli, "emit_reports", "cli.emit", None),
        (cli, "emit_tables", "cli.emit", None),
        (cli, "generate_all", "tables.generate", None),
        (cli, "verify_no_efx", "verify.no_efx", add_feasible0),
        (cli, "verify_no_alpha_efx", "verify.no_alpha_efx", None),
        (cli, "compute_deficit_profile", "verify.deficit", None),
        (cli, "property_reports", lambda args: f"verify.properties_{args[0].kind}", None),
        (cli, "lemma_reports", "verify.lemmas", None),
        (verify, "verify_cyclic_symmetry", "verify.cyclic", None),
        (verify, "verify_lemma_first_pair", "verify.first_pair", None),
        (verify, "verify_size_pattern_props", "verify.size_props", None),
        (verify, "verify_transfer", "verify.transfer", None),
        (verify, "build_subadditive", "cardinal.build_subadditive", None),
        (verify, "build_coverage", "cardinal.build_coverage", None),
        (verify, "level_sum_compare", "cardinal.exact_sign", bump("cardinal.exact_sign_calls")),
        (ordinal, "parse_template", "ordinal.parse_template", None),
        (ordinal, "build_profile", "ordinal.build_profile", bump("ordinal.profiles_built")),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in plan]
    saved.append((verify, "allocation_from_counter", decode))
    for module, attr, name, after in plan:
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, after))
    verify.allocation_from_counter = counted_decode

    def uninstall() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    return uninstall
