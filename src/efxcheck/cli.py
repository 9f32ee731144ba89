"""Command-line front end.

Commands:

* ``verify <ordinal|subadditive|coverage> [--alpha FACTOR]`` runs the
  exhaustive no-EFX scan (plus the scaled scan when a factor is given)
  and exits 0 exactly when the outcome matches the expected verdict
  embedded here.
* ``properties <profile>`` runs the applicable property suite.
* ``lemmas`` runs every lemma and proposition verifier.
* ``alpha-star`` reports the minimum rank deficit and the corresponding
  exact scale factor.
* ``tables`` regenerates the reference tables and diffs them against the
  embedded expected cells.
* ``template <path> <verify|properties>`` loads a template document and
  runs the requested suite; the verdict is data, so exit 0 means the
  suite completed.

Exit codes: 0 success or expected verdict, 1 verification discrepancy,
2 usage or parse error, 3 internal error (an uncaught exception; its
traceback goes to stderr), 141 (128 + SIGPIPE) when the reader closes
stdout before the report is written.  Reports do not time themselves:
elapsed_ms is always 0 in serialized output, so output is byte-identical
run to run, and the command's wall time goes to stderr.
``--workers K`` is accepted for compatibility and has no effect: every
scan runs in this process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from functools import lru_cache

from .cardinal import ApproxFactor, LevelValue, compare_scaled
from .core import N_ALLOCATIONS, members
from .ordinal import TemplateError, load_template_file
from .tables import TableArtifact, generate_all
from .tables import render_markdown as render_table_markdown
from .verify import (
    GOLDEN_D_STAR,
    GOLDEN_D_STAR_ARGMIN_COUNT,
    GOLDEN_D_STAR_ARGMIN_COUNTER,
    GOLDEN_MIN_DEFICIT_ALL_NONEMPTY,
    PROFILE_KINDS,
    Profile,
    VerdictReport,
    Witness,
    builtin,
    compute_deficit_profile,
    lemma_reports,
    property_reports,
    verify_no_alpha_efx,
    verify_no_efx,
)

FORMATS = ("markdown", "json", "csv")

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by the signal


def expected_no_alpha_efx(alpha: ApproxFactor) -> bool:
    """True when the expected outcome is that no scaled-EFX allocation
    exists: exactly the factors above q**m, where q = 2**(-1/6) is the
    level base and m the frozen minimum nonempty deficit.  A scaled-EFX
    allocation exists exactly when q**m >= alpha; with m = 1 the cutoff
    is the base itself.
    """
    return not compare_scaled(LevelValue.power(GOLDEN_MIN_DEFICIT_ALL_NONEMPTY), alpha, LevelValue.power(0))


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each build makes
    argparse look up its message catalogue for every sub-parser, which
    costs more than parsing.  parse_args leaves the parser unchanged, so
    one request's options never reach the next."""
    parser = argparse.ArgumentParser(
        prog="efxcheck",
        description="Exhaustive fairness verification for the built-in three-agent, eight-good instances.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="markdown", dest="fmt")
    common.add_argument("--witnesses", type=int, default=10, metavar="N",
                        help="maximum witnesses kept per report (default 10)")
    common.add_argument("--workers", type=int, default=1, metavar="K",
                        help="accepted for compatibility and ignored; scans run in one process")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="exhaustive (scaled-)EFX non-existence scan")
    p_verify.add_argument("profile", choices=PROFILE_KINDS)
    p_verify.add_argument("--alpha", metavar="FACTOR",
                          help='scale factor: a rational like "9/10" or "0.9", or "lambda^t"')

    p_props = sub.add_parser("properties", parents=[common], help="valuation-class property suite")
    p_props.add_argument("profile", choices=PROFILE_KINDS)

    sub.add_parser("lemmas", parents=[common], help="all lemma and proposition verifiers")
    sub.add_parser("alpha-star", parents=[common], help="minimum rank deficit and exact scale threshold")
    sub.add_parser("tables", parents=[common], help="regenerate reference tables and diff them")

    p_template = sub.add_parser("template", parents=[common], help="load a template document and run a suite")
    p_template.add_argument("path")
    p_template.add_argument("action", choices=("verify", "properties"))
    return parser


def parse_config(argv: list[str] | None) -> argparse.Namespace:
    """Parsed arguments, with --witnesses clamped at 0 and --alpha parsed
    into an ApproxFactor."""
    args = build_parser().parse_args(argv)
    args.witnesses = max(0, args.witnesses)
    if args.command == "verify" and args.alpha is not None:
        try:
            args.alpha = ApproxFactor.parse(args.alpha)
        except ValueError as exc:
            raise SystemExit(_usage_error(str(exc)))
    return args


def _usage_error(message: str) -> int:
    print(f"efxcheck: error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Output


def reports_to_json(reports: list[VerdictReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def reports_to_csv(reports: list[VerdictReport]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["claim", "universe", "checked", "verdict", "witnesses", "breakdown", "elapsed_ms"])
    for report in reports:
        data = report.to_dict()
        writer.writerow([
            data["claim"],
            data["universe"],
            data["checked"],
            data["verdict"],
            json.dumps(data["witnesses"], sort_keys=True),
            json.dumps(data["breakdown"], sort_keys=True),
            data["elapsed_ms"],
        ])
    return buffer.getvalue()


def _allocation_text(allocation: tuple[tuple[int, ...], ...]) -> str:
    return " | ".join("{" + ",".join(map(str, bundle)) + "}" for bundle in allocation)


def _witness_line(witness: Witness) -> str:
    parts = []
    if witness.allocation is not None:
        parts.append(_allocation_text(witness.allocation))
    if witness.bundle_s is not None:
        parts.append(f"S={{{','.join(map(str, witness.bundle_s))}}}")
    if witness.bundle_t is not None:
        parts.append(f"T={{{','.join(map(str, witness.bundle_t))}}}")
    for name, value in (("i", witness.agent_i), ("j", witness.agent_j), ("g", witness.good_g)):
        if value is not None:
            parts.append(f"{name}={value}")
    if witness.lhs is not None or witness.rhs is not None:
        parts.append(f"lhs={witness.lhs} rhs={witness.rhs}")
    return "; ".join(parts)


def reports_to_markdown(reports: list[VerdictReport]) -> str:
    lines = ["# efxcheck report", ""]
    for report in reports:
        lines.append(f"## {report.claim}")
        lines.append("")
        lines.append(f"- verdict: **{report.verdict}**")
        if report.claim.startswith("no_efx_"):
            count = dict(report.breakdown).get("efx_allocations", 0)
            lines.append(f"- {count} EFX / {report.universe}")
        if report.claim.startswith("no_alpha_efx"):
            count = dict(report.breakdown).get("alpha_efx_allocations", 0)
            verdict_word = "no scaled-EFX allocation" if report.passed else "scaled-EFX EXISTS"
            lines.append(f"- {verdict_word}: {count} scaled-EFX / {report.universe}")
        lines.append(f"- universe {report.universe}, checked {report.checked}")
        if report.breakdown:
            lines.append("- breakdown: " + ", ".join(f"{k}={v}" for k, v in report.breakdown))
        if report.witnesses:
            lines.append("- witnesses:")
            lines.extend(f"  - {_witness_line(w)}" for w in report.witnesses)
        lines.append("")
    return "\n".join(lines)


def emit_reports(reports: list[VerdictReport], fmt: str) -> None:
    if fmt == "json":
        print(reports_to_json(reports))
    elif fmt == "csv":
        print(reports_to_csv(reports), end="")
    else:
        print(reports_to_markdown(reports))


def emit_tables(artifacts: list[TableArtifact], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([a.to_dict() for a in artifacts], indent=2, sort_keys=True))
    elif fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["table", "row", "cells"])
        for artifact in artifacts:
            for index, row in enumerate(artifact.rows):
                writer.writerow([artifact.table_id, index, json.dumps(list(row))])
            for entry in artifact.diff:
                writer.writerow([artifact.table_id, "diff", entry])
        print(buffer.getvalue(), end="")
    else:
        sections = [render_table_markdown(a) for a in artifacts]
        clean = all(a.matches for a in artifacts)
        footer = "All tables match the expected data." if clean else "TABLE DIFFS PRESENT."
        print("\n\n".join(sections) + "\n\n" + footer)


# ---------------------------------------------------------------------------
# Command handlers


def cmd_verify(args: argparse.Namespace) -> int:
    if args.alpha is not None and args.profile != "subadditive":
        return _usage_error("--alpha applies only to the subadditive profile")
    profile = builtin(args.profile)
    reports = [verify_no_efx(profile, args.witnesses)]
    status = EXIT_OK if reports[0].passed else EXIT_DISCREPANCY
    if args.alpha is not None:
        alpha_report = verify_no_alpha_efx(profile, args.alpha, args.witnesses)
        reports.append(alpha_report)
        if alpha_report.passed != expected_no_alpha_efx(args.alpha):
            status = EXIT_DISCREPANCY
    emit_reports(reports, args.fmt)
    return status


def cmd_properties(args: argparse.Namespace) -> int:
    reports = property_reports(builtin(args.profile), args.witnesses)
    emit_reports(reports, args.fmt)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DISCREPANCY


def cmd_lemmas(args: argparse.Namespace) -> int:
    reports = lemma_reports(args.witnesses)
    emit_reports(reports, args.fmt)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DISCREPANCY


def cmd_alpha_star(args: argparse.Namespace) -> int:
    deficit = compute_deficit_profile(builtin("ordinal"), args.witnesses or 1)
    stable = (
        deficit.d_star == GOLDEN_D_STAR
        and deficit.argmin_count == GOLDEN_D_STAR_ARGMIN_COUNT
        and deficit.argmin_counters[:1] == (GOLDEN_D_STAR_ARGMIN_COUNTER,)
        and deficit.min_deficit_all_nonempty == GOLDEN_MIN_DEFICIT_ALL_NONEMPTY
    )
    witnesses = tuple(
        Witness(
            allocation=tuple(members(bundle) for bundle in allocation),
            lhs=deficit.alpha_star_exact(),
            rhs=deficit.alpha_star_decimal(),
        )
        for allocation in deficit.argmin_allocations()[:1]
    )
    report = VerdictReport(
        claim="alpha_star",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        verdict="pass" if (deficit.d_star >= 1 and stable) else "fail",
        witnesses=witnesses,
        breakdown=tuple(
            sorted(
                {
                    "d_star": deficit.d_star,
                    "argmin_count": deficit.argmin_count,
                    "min_deficit_all_nonempty": deficit.min_deficit_all_nonempty,
                    **{f"deficit[{d}]": n for d, n in deficit.histogram},
                }.items()
            )
        ),
    )
    if args.fmt == "markdown":
        exact = deficit.alpha_star_exact()
        decimal = deficit.alpha_star_decimal()
        print(f"alpha* = {exact} = {decimal} (10 digits, truncated toward zero)")
        print(f"d* = {deficit.d_star}, attained by {deficit.argmin_count} allocations")
        if witnesses:
            print(f"first argmin allocation: {_allocation_text(witnesses[0].allocation)}")
        print()
    emit_reports([report], args.fmt)
    return EXIT_OK if report.passed else EXIT_DISCREPANCY


def cmd_tables(args: argparse.Namespace) -> int:
    artifacts = generate_all()
    emit_tables(artifacts, args.fmt)
    return EXIT_OK if all(a.matches for a in artifacts) else EXIT_DISCREPANCY


def cmd_template(args: argparse.Namespace) -> int:
    _, ordinal = load_template_file(args.path)
    profile = Profile(kind="ordinal", ordinal=ordinal)
    if args.action == "verify":
        reports = [verify_no_efx(profile, args.witnesses)]
    else:
        reports = property_reports(profile, args.witnesses)
    emit_reports(reports, args.fmt)
    return EXIT_OK


_HANDLERS = {
    "verify": cmd_verify,
    "properties": cmd_properties,
    "lemmas": cmd_lemmas,
    "alpha-star": cmd_alpha_star,
    "tables": cmd_tables,
    "template": cmd_template,
}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        args = parse_config(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        status = _HANDLERS[args.command](args)
    except TemplateError as exc:
        location = exc.location or "document"
        print(f"efxcheck: template error at {location}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    print(f"[efxcheck] wall time: {int((time.perf_counter() - started) * 1000)} ms", file=sys.stderr)
    return status


def entrypoint() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at
        # interpreter exit has nowhere to fail, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_CLOSED_STDOUT
    except Exception:
        # A bug, not a verdict: exit 1 stays reserved for discrepancies.
        import traceback

        traceback.print_exc()
        print("efxcheck: internal error", file=sys.stderr)
        status = EXIT_INTERNAL
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
