"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the printed lines also
appear with ``-s``).  Every tolerance is exact except the two stated
wall-clock budgets.
"""

import json
import time
from fractions import Fraction

from helpers import run_cli
from oracles import keyed, triples_of, value_pairs

from efxcheck.cardinal import ApproxFactor, LevelValue, compare_scaled
from efxcheck.core import ALL_BUNDLES
from efxcheck.verify import (
    GOLDEN_D_STAR,
    GOLDEN_D_STAR_ARGMIN_COUNT,
    GOLDEN_D_STAR_ARGMIN_COUNTER,
    builtin,
    check_monotone,
    check_strict_consistency,
    check_subadditive,
    check_submodular,
    compute_deficit_profile,
)


def _criterion(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_ordinal_no_efx_under_one_second():
    started = time.perf_counter()
    code, out, _ = run_cli(["verify", "ordinal", "--format", "json", "--workers", "1"])
    elapsed = time.perf_counter() - started
    report = json.loads(out)[0]
    ok = (
        code == 0
        and report["verdict"] == "pass"
        and report["universe"] == 6561
        and report["breakdown"]["efx_allocations"] == 0
        and elapsed < 1.0
    )
    _criterion(1, f"ordinal no-EFX 0/6561 in {elapsed:.3f}s", ok)


def test_criterion_2_coverage_no_efx():
    code, out, _ = run_cli(["verify", "coverage", "--format", "json"])
    report = json.loads(out)[0]
    ok = code == 0 and report["verdict"] == "pass" and report["breakdown"]["efx_allocations"] == 0
    _criterion(2, "coverage no-EFX 0/6561", ok)


def test_criterion_3_subadditive_above_threshold():
    ok = True
    for factor in ("0.9", "0.95", "0.99", "1"):
        code, out, _ = run_cli(["verify", "subadditive", "--alpha", factor, "--format", "json"])
        report = json.loads(out)[1]
        ok = ok and code == 0 and report["verdict"] == "pass"
    for t in ("0", "1/6", "1/2", "5/6", "59/60"):
        code, out, _ = run_cli(["verify", "subadditive", "--alpha", f"lambda^{t}", "--format", "json"])
        report = json.loads(out)[1]
        ok = ok and code == 0 and report["verdict"] == "pass" and Fraction(t) < 1
    _criterion(3, "no scaled-EFX for every factor above 2^(-1/6)", ok)


def test_criterion_4_half_efx_exists_and_reverifies():
    code, out, _ = run_cli(
        ["verify", "subadditive", "--alpha", "1/2", "--format", "json", "--witnesses", "1"]
    )
    report = json.loads(out)[1]
    ok = code == 0 and report["verdict"] == "fail" and report["witnesses"]
    if ok:
        triples = triples_of(report["witnesses"][0]["allocation"])
        pairs = value_pairs(keyed(builtin("subadditive").subadditive.value), triples)
        alpha = ApproxFactor.parse("1/2")
        ok = all(compare_scaled(own, alpha, other) for own, other in pairs)
    _criterion(4, "a 1/2-scaled EFX allocation exists and re-verifies", ok)


def test_criterion_5_alpha_star_bracket_and_stability():
    code, out, _ = run_cli(["alpha-star", "--format", "json"])
    report = json.loads(out)[0]
    deficit = compute_deficit_profile(builtin("ordinal"))
    ok = (
        code == 0
        and report["verdict"] == "pass"
        and report["breakdown"]["d_star"] == GOLDEN_D_STAR >= 1
        and deficit.argmin_count == GOLDEN_D_STAR_ARGMIN_COUNT
        and deficit.argmin_counters[0] == GOLDEN_D_STAR_ARGMIN_COUNTER
        and compare_scaled(
            LevelValue.power(1), ApproxFactor.from_level_exponent(deficit.d_star), LevelValue.power(0)
        )  # alpha* = q**d* <= q**1 = 2^(-1/6)
    )
    _criterion(5, "d* >= 1 with stable golden argmin data", ok)


def test_criterion_6_tables_regenerate_with_zero_diffs():
    code, out, _ = run_cli(["tables", "--format", "json"])
    artifacts = json.loads(out)
    ok = code == 0 and len(artifacts) == 7 and all(a["diff"] == [] for a in artifacts)
    table4 = next(a for a in artifacts if a["table"] == "4")
    extrema = []
    for rank, values, _ in table4["rows"]:
        numbers = [int(v) for v in values.split(", ")]
        extrema.append((rank, min(numbers), max(numbers)))
    for (_, _, prev_max), (_, next_min, _) in zip(extrema, extrema[1:]):
        ok = ok and prev_max < next_min
    _criterion(6, "tables 1, 2, 3a-c, 4, 5 match with the separation ladder", ok)


def test_criterion_7_property_suites_and_adversarial_doubles():
    ok = True
    for kind in ("ordinal", "subadditive", "coverage"):
        code, out, _ = run_cli(["properties", kind, "--format", "json"])
        ok = ok and code == 0
        for report in json.loads(out):
            ok = ok and report["verdict"] == "pass"
            claim = report["claim"]
            if claim.startswith("monotone("):
                ok = ok and report["checked"] == 256 * 8
            elif claim.startswith("subadditive("):
                ok = ok and report["checked"] == 256 * 256
            elif claim.startswith("submodular("):
                ok = ok and report["checked"] == 8 * 3**7
            elif claim.startswith("strict_consistency("):
                ok = ok and report["checked"] == 256 * 256
            elif claim.startswith("support_collapse("):
                ok = ok and report["breakdown"]["support_classes"] == 32
    doubles = [
        check_monotone(tuple(b.bit_count() % 3 for b in ALL_BUNDLES), "doctored"),
        check_subadditive(
            tuple(None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES), "doctored"
        ),
        check_submodular(tuple(b.bit_count() ** 2 for b in ALL_BUNDLES), "doctored"),
        check_strict_consistency(
            builtin("ordinal").ordinal.rank_tables[0],
            tuple(1 for _ in ALL_BUNDLES),
            "doctored",
        ),
    ]
    for report in doubles:
        ok = ok and not report.passed and len(report.witnesses) > 0
    _criterion(7, "property suites pass; doctored evaluators fail with witnesses", ok)


def test_criterion_8_lemma_suite():
    code, out, _ = run_cli(["lemmas", "--format", "json"])
    reports = {r["claim"]: r for r in json.loads(out)}
    size_props = reports["size_pattern_propositions"]
    first_pair = reports["first_pair_restriction"]
    feasible_labels = {
        key.removeprefix("feasible_first_pair[").removesuffix("]")
        for key in first_pair["breakdown"]
    }
    ok = (
        code == 0
        and all(r["verdict"] == "pass" for r in reports.values())
        and size_props["breakdown"]["universe[(2,2,4)]"] == 420
        and size_props["breakdown"]["universe[(2,3,3)]"] == 560
        and "strict_order_transfer(subadditive)" in reports
        and "strict_order_transfer(coverage)" in reports
        and reports["cyclic_symmetry(ordinal)"]["universe"] == 6561
        and first_pair["verdict"] == "pass"
        and feasible_labels <= {"Ax", "Ay", "BC", "By", "Cy"}
    )
    _criterion(8, "lemma suite passes with 420/560 class sizes", ok)


def test_criterion_9_determinism_and_battery_budget():
    outputs = []
    for workers in ("1", "8"):
        code, out, _ = run_cli(["verify", "ordinal", "--format", "json", "--workers", workers])
        assert code == 0
        outputs.append(out)
    identical = outputs[0] == outputs[1]

    lemma_outputs = []
    for workers in ("1", "8"):
        code, out, _ = run_cli(["lemmas", "--format", "json", "--workers", workers])
        assert code == 0
        lemma_outputs.append(out)
    identical = identical and lemma_outputs[0] == lemma_outputs[1]

    started = time.perf_counter()
    battery_ok = True
    for kind in ("ordinal", "subadditive", "coverage"):
        battery_ok = battery_ok and run_cli(["verify", kind])[0] == 0
        battery_ok = battery_ok and run_cli(["properties", kind])[0] == 0
    battery_ok = battery_ok and run_cli(["lemmas"])[0] == 0
    elapsed = time.perf_counter() - started

    ok = identical and battery_ok and elapsed < 10.0
    _criterion(9, f"byte-identical reports across workers; battery in {elapsed:.2f}s", ok)
