"""Known answers for every request, checked from efxcheck's stdout.

The answers are written here, not read from efxcheck: the paper's counts
for the built-in instance, the benchmark's own exact threshold test for
scaled EFX, and the set-based oracle for template documents.  Every
request must exit 0 (README: 0 means the outcome matches the embedded
expectation, and a template run exit 0 means the suite completed).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

UNIVERSE = 6561
SUITE_SIZES = {"ordinal": 6, "subadditive": 12, "coverage": 15}
LEMMA_REPORTS = 7
D_STAR, D_STAR_ARGMIN_COUNT = 1, 600


def above_threshold(alpha: str) -> bool:
    """alpha > 2^(-1/6), decided exactly: lambda^t > lambda^1 iff t < 1,
    and a rational p/q > 2^(-1/6) iff 2 p^6 > q^6."""
    if alpha.startswith("lambda^"):
        return Fraction(alpha[len("lambda^"):]) < 1
    value = Fraction(alpha)
    return 2 * value.numerator**6 > value.denominator**6


def parse_reports(text: str, fmt: str) -> list[dict]:
    """Claim, verdict, universe and breakdown of every report in stdout."""
    if fmt == "json":
        return [
            {k: r[k] for k in ("claim", "verdict", "universe", "breakdown")}
            for r in json.loads(text)
        ]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][:4] != ["claim", "universe", "checked", "verdict"]:
            raise ValueError("csv header missing")
        return [
            {"claim": r[0], "universe": int(r[1]), "verdict": r[3], "breakdown": json.loads(r[5])}
            for r in rows[1:]
        ]
    reports: list[dict] = []
    for line in text.splitlines():
        if line.startswith("## "):
            reports.append({"claim": line[3:], "breakdown": {}})
        elif not reports:
            continue
        elif line.startswith("- verdict: **"):
            reports[-1]["verdict"] = line[len("- verdict: **"):-2]
        elif line.startswith("- universe "):
            reports[-1]["universe"] = int(line.split()[2].rstrip(","))
        elif line.startswith("- breakdown: "):
            for item in line[len("- breakdown: "):].split(", "):
                key, _, value = item.rpartition("=")
                reports[-1]["breakdown"][key] = int(value)
    return reports


def _tables_match(text: str, fmt: str) -> bool:
    if fmt == "json":
        artifacts = json.loads(text)
        return len(artifacts) == 7 and all(not a["diff"] for a in artifacts)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0] == ["table", "row", "cells"] and len(rows) > 1 and all(r[1] != "diff" for r in rows)
    return text.rstrip("\n").endswith("All tables match the expected data.")


def _no_efx(report: dict, kind: str, expected_count: int = 0) -> str | None:
    count = report["breakdown"].get("efx_allocations")
    verdict = "pass" if expected_count == 0 else "fail"
    if (report["claim"], report["verdict"], report["universe"], count) != (
        f"no_efx_{kind}", verdict, UNIVERSE, expected_count
    ):
        return f"no-EFX report {report['claim']} {report['verdict']} {count}, expected {expected_count}"
    return None


def _all_pass(reports: list[dict], expected: int) -> str | None:
    if len(reports) != expected:
        return f"{len(reports)} reports, expected {expected}"
    failed = [r["claim"] for r in reports if r.get("verdict") != "pass"]
    return f"failed: {failed}" if failed else None


def check(request, code: int | None, out: str, oracle_answer=None) -> str | None:
    """None when the request's exit code and verdicts are right, else why not.

    oracle_answer is the EFX count (template verify) or the per-agent
    support-collapse verdicts (template properties) of the document.
    """
    if code != 0:
        return f"exit code {code}"
    kind, argv, fmt = request.kind, request.argv, request.fmt
    try:
        if kind == "tables":
            return None if _tables_match(out, fmt) else "table diffs"
        reports = parse_reports(out, fmt)
        if kind == "verify":
            return _all_pass(reports, 1) or _no_efx(reports[0], argv[1])
        if kind == "verify_alpha":
            if len(reports) != 2:
                return f"{len(reports)} reports, expected 2"
            scaled = reports[1]
            exists = scaled["breakdown"].get("alpha_efx_allocations", 0) > 0
            if scaled["verdict"] != ("pass" if above_threshold(request.alpha) else "fail") or (
                exists == (scaled["verdict"] == "pass")
            ):
                return f"alpha {request.alpha}: {scaled['verdict']}, exists={exists}"
            return _no_efx(reports[0], "subadditive")
        if kind == "properties":
            return _all_pass(reports, SUITE_SIZES[argv[1]])
        if kind == "lemmas":
            return _all_pass(reports, LEMMA_REPORTS)
        if kind == "alpha_star":
            breakdown = reports[0]["breakdown"] if reports else {}
            if fmt == "markdown" and f"d* = {D_STAR}, attained by {D_STAR_ARGMIN_COUNT} allocations" not in out:
                return "alpha-star summary line"
            return _all_pass(reports, 1) or (
                None
                if (breakdown.get("d_star"), breakdown.get("argmin_count")) == (D_STAR, D_STAR_ARGMIN_COUNT)
                else f"d* {breakdown.get('d_star')} attained by {breakdown.get('argmin_count')}"
            )
        if kind == "template_verify":
            if len(reports) != 1:
                return f"{len(reports)} reports, expected 1"
            return _no_efx(reports[0], "ordinal", oracle_answer or 0)
        if kind == "template_properties":
            if len(reports) != 6:
                return f"{len(reports)} reports, expected 6"
            verdicts = {r["claim"]: r["verdict"] for r in reports}
            for agent in range(3):
                collapse = "pass" if oracle_answer[agent] else "fail"
                if verdicts.get(f"monotone(rank[{agent}])") != "pass":
                    return f"monotone(rank[{agent}]) should pass for every template"
                if verdicts.get(f"support_collapse(rank[{agent}])") != collapse:
                    return f"support_collapse(rank[{agent}]) should be {collapse}"
            return None
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        return f"unparseable {fmt} output: {exc!r}"
    return f"unknown request kind {kind}"
