"""Differential checks: the bundle-pair property checks against full pair loops.

The references below walk every bundle pair (or nested pair) explicitly,
the way the checks worked before they learned to skip rows that an exact
bound rules out and to stop once their witnesses are full.  Each reference
runs once at the largest witness limit; its report at a smaller limit is
the same report with the witness list cut to that limit, because the loops
record witnesses in scan order.  Reports are compared whole.

Subjects: the built-in tables, seeded random tables (many of which fail,
with None exponents on nonempty bundles, a non-None exponent on the empty
bundle, rank ties and perturbed coverage tables), and tables generated by
Hypothesis with a fixed seed and no example database.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_template_doc

from efxcheck.cardinal import LevelValue, build_coverage, build_subadditive, level_sum_compare
from efxcheck.core import ALL_BUNDLES, FULL_BUNDLE, GOODS, members
from efxcheck.ordinal import load_template
from efxcheck.verify import (
    Profile,
    VerdictReport,
    Witness,
    builtin,
    check_monotone,
    check_normalized_ints,
    check_normalized_levels,
    check_strict_consistency,
    check_subadditive,
    check_submodular,
    check_support_collapse,
    display_value,
    profile_value_keys,
    property_reports,
)

WITNESS_LIMITS = (0, 1, 3, 10)
TEMPLATE_SEEDS = (3, 11, 29, 47)
HYPOTHESIS = settings(derandomize=True, database=None, deadline=None, max_examples=25)


# --- full pair loops -----------------------------------------------------------


def _verdict(claim: str, checked: int, violations: int, witnesses: list[Witness]) -> VerdictReport:
    return VerdictReport(
        claim=claim,
        universe=checked,
        checked=checked,
        verdict="pass" if violations == 0 else "fail",
        witnesses=tuple(witnesses),
    )


def _level_str(exponent: int | None) -> str:
    return "0" if exponent is None else f"lambda^{exponent}"


@lru_cache(maxsize=None)
def _sum_sign(e_first: int | None, e_second: int | None, e_union: int | None) -> int:
    level = [LevelValue.zero() if e is None else LevelValue.power(e) for e in (e_first, e_second, e_union)]
    return level_sum_compare(level[:2], level[2])


def reference_monotone(key_table, claim, display=None, witness_limit=10):
    display = display or key_table.__getitem__
    witnesses, violations, checked = [], 0, 0
    for bundle in ALL_BUNDLES:
        for g in GOODS:
            checked += 1
            extended = bundle | (1 << g)
            if key_table[extended] < key_table[bundle]:
                violations += 1
                if len(witnesses) < witness_limit:
                    witnesses.append(
                        Witness(
                            bundle_s=members(bundle), good_g=g, lhs=display(extended), rhs=display(bundle)
                        )
                    )
    return _verdict(claim, checked, violations, witnesses)


def reference_subadditive(exponent_table, claim, witness_limit=10):
    witnesses, violations, checked = [], 0, 0
    for first in ALL_BUNDLES:
        e_first = exponent_table[first]
        for second in ALL_BUNDLES:
            checked += 1
            if _sum_sign(e_first, exponent_table[second], exponent_table[first | second]) < 0:
                violations += 1
                if len(witnesses) < witness_limit:
                    witnesses.append(
                        Witness(
                            bundle_s=members(first),
                            bundle_t=members(second),
                            lhs=f"{_level_str(e_first)} + {_level_str(exponent_table[second])}",
                            rhs=_level_str(exponent_table[first | second]),
                        )
                    )
    return _verdict(claim, checked, violations, witnesses)


def reference_submodular(value_table, claim, witness_limit=10):
    witnesses, violations, checked = [], 0, 0
    for g in GOODS:
        bit = 1 << g
        rest = FULL_BUNDLE & ~bit
        t = rest
        while True:
            marginal_t = value_table[t | bit] - value_table[t]
            s = t
            while True:
                checked += 1
                if value_table[s | bit] - value_table[s] < marginal_t:
                    violations += 1
                    if len(witnesses) < witness_limit:
                        witnesses.append(
                            Witness(
                                bundle_s=members(s),
                                bundle_t=members(t),
                                good_g=g,
                                lhs=value_table[s | bit] - value_table[s],
                                rhs=marginal_t,
                            )
                        )
                if s == 0:
                    break
                s = (s - 1) & t
            if t == 0:
                break
            t = (t - 1) & rest
    return _verdict(claim, checked, violations, witnesses)


def reference_strict_consistency(rank_table, key_table, claim, display=None, witness_limit=10):
    display = display or key_table.__getitem__
    witnesses, violations, checked = [], 0, 0
    for first in ALL_BUNDLES:
        for second in ALL_BUNDLES:
            checked += 1
            if rank_table[first] > rank_table[second] and key_table[first] <= key_table[second]:
                violations += 1
                if len(witnesses) < witness_limit:
                    witnesses.append(
                        Witness(
                            bundle_s=members(first),
                            bundle_t=members(second),
                            lhs=display(first),
                            rhs=display(second),
                        )
                    )
    return _verdict(claim, checked, violations, witnesses)


def reference_suite(profile: Profile, witness_limit: int) -> list[VerdictReport]:
    """property_reports for a subadditive or coverage profile, with every
    report that walks bundle pairs taken from the loops above."""
    ordinal = profile.ordinal
    reports = []
    if profile.kind == "subadditive":
        keys = profile_value_keys(profile)
        for agent in range(3):
            display = partial(display_value, profile, agent)
            exponents = profile.subadditive.exponent_tables[agent]
            reports += [
                reference_monotone(keys[agent], f"monotone(level_value[{agent}])", display, witness_limit),
                reference_subadditive(exponents, f"subadditive(level_value[{agent}])", witness_limit),
                reference_strict_consistency(
                    ordinal.rank_tables[agent],
                    keys[agent],
                    f"strict_consistency(rank[{agent}],level_value[{agent}])",
                    display,
                    witness_limit,
                ),
                check_normalized_levels(exponents, f"normalized(level_value[{agent}])", ordinal.top_rank),
            ]
        return reports
    for agent in range(3):
        table = profile.coverage.value_tables[agent]
        reports += [
            reference_monotone(table, f"monotone(coverage[{agent}])", witness_limit=witness_limit),
            reference_submodular(table, f"submodular(coverage[{agent}])", witness_limit),
            reference_strict_consistency(
                ordinal.rank_tables[agent],
                table,
                f"strict_consistency(rank[{agent}],coverage[{agent}])",
                witness_limit=witness_limit,
            ),
            check_normalized_ints(table, f"normalized(coverage[{agent}])"),
            check_support_collapse(
                table,
                ordinal.support_labels,
                f"support_collapse(coverage[{agent}])",
                witness_limit=witness_limit,
            ),
        ]
    return reports


def assert_matches(check, reference, *tables):
    """check at every witness limit equals the reference's full report
    cut to that limit."""
    full = reference(*tables, "claim", witness_limit=max(WITNESS_LIMITS))
    for limit in WITNESS_LIMITS:
        expected = full.replace(witnesses=full.witnesses[:limit])
        assert check(*tables, "claim", witness_limit=limit) == expected, limit


def assert_subadditive_matches(table):
    assert_matches(check_subadditive, reference_subadditive, tuple(table))


def assert_submodular_matches(table):
    assert_matches(check_submodular, reference_submodular, tuple(table))


def assert_strict_matches(ranks, keys):
    assert_matches(check_strict_consistency, reference_strict_consistency, tuple(ranks), tuple(keys))


# --- subjects ------------------------------------------------------------------


def template_profiles() -> list[Profile]:
    found = []
    for seed in TEMPLATE_SEEDS:
        _, ordinal = load_template(random_template_doc(seed))
        found.append(Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal)))
        found.append(Profile(kind="coverage", ordinal=ordinal, coverage=build_coverage(ordinal)))
    return found


def random_exponent_table(rng: random.Random) -> list[int | None]:
    """Level exponents of a random monotone rank table, or of uniform
    noise, with a few cells replaced: None on nonempty bundles and an
    exponent on the empty bundle."""
    if rng.random() < 0.5:
        weights = [rng.randint(0, 3) for _ in GOODS]
        top = rng.randint(1, 12)
        table = [
            None if bundle == 0 else top - min(top, max(1, sum(weights[g] for g in members(bundle))))
            for bundle in ALL_BUNDLES
        ]
    else:
        high = rng.randint(0, 10)
        table = [rng.randint(0, high) for _ in ALL_BUNDLES]
    for _ in range(rng.randint(0, 4)):
        table[rng.randrange(1, 256)] = None
    if rng.random() < 0.5:
        table[0] = rng.randint(0, 6)
    return table


def random_coverage_table(rng: random.Random) -> list[int]:
    atoms = [(rng.randint(1, FULL_BUNDLE), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
    table = [sum(w for covered, w in atoms if bundle & covered) for bundle in ALL_BUNDLES]
    for _ in range(rng.choice((0, 1, 1, 3))):
        table[rng.randrange(256)] += rng.choice((-2, -1, 1, 2))
    return table


def random_rank_key_tables(rng: random.Random) -> tuple[list[int], list[int]]:
    """Ranks with many ties, and keys that follow them loosely or not at all."""
    levels = rng.randint(1, 6)
    ranks = [rng.randint(1, levels) for _ in ALL_BUNDLES]
    if rng.random() < 0.5:
        keys = [2 * r for r in ranks]
        for _ in range(rng.randint(0, 3)):
            keys[rng.randrange(256)] += rng.choice((-2, -1, 1, 2))
    else:
        keys = [rng.randint(0, levels) for _ in ALL_BUNDLES]
    return ranks, keys


RANDOM_SEEDS = range(12)


# --- built-in and seeded tables ------------------------------------------------


@pytest.mark.parametrize("agent", range(3))
def test_builtin_subadditive_matches_reference(agent):
    assert_subadditive_matches(builtin("subadditive").subadditive.exponent_tables[agent])


@pytest.mark.parametrize("agent", range(3))
def test_builtin_submodular_matches_reference(agent):
    assert_submodular_matches(builtin("coverage").coverage.value_tables[agent])


@pytest.mark.parametrize("kind", ["subadditive", "coverage"])
@pytest.mark.parametrize("agent", range(3))
def test_builtin_strict_consistency_matches_reference(kind, agent):
    profile = builtin(kind)
    assert_strict_matches(profile.ordinal.rank_tables[agent], profile_value_keys(profile)[agent])


def test_doctored_tables_match_reference():
    assert_subadditive_matches([None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES])
    assert_submodular_matches([b.bit_count() ** 2 for b in ALL_BUNDLES])
    assert_strict_matches(builtin("ordinal").ordinal.rank_tables[0], [1] * 256)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_subadditive_matches_reference(seed):
    assert_subadditive_matches(random_exponent_table(random.Random(seed)))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_submodular_matches_reference(seed):
    assert_submodular_matches(random_coverage_table(random.Random(seed)))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_strict_consistency_matches_reference(seed):
    assert_strict_matches(*random_rank_key_tables(random.Random(seed)))


def test_random_tables_cover_both_verdicts():
    for check, reference, make in (
        (check_subadditive, reference_subadditive, lambda rng: (random_exponent_table(rng),)),
        (check_submodular, reference_submodular, lambda rng: (random_coverage_table(rng),)),
        (check_strict_consistency, reference_strict_consistency, random_rank_key_tables),
    ):
        verdicts = {check(*map(tuple, make(random.Random(seed))), "claim").verdict for seed in RANDOM_SEEDS}
        assert verdicts == {"pass", "fail"}, check.__name__


@pytest.mark.parametrize("limit", WITNESS_LIMITS)
@pytest.mark.parametrize(
    "profile", template_profiles(), ids=[f"seed{s}-{k}" for s in TEMPLATE_SEEDS for k in ("sub", "cov")]
)
def test_template_suites_match_reference(profile, limit):
    assert property_reports(profile, witness_limit=limit) == reference_suite(profile, limit)


# --- generated tables ------------------------------------------------------------

exponents = st.one_of(st.none(), st.integers(0, 9))
bundles = st.integers(0, FULL_BUNDLE)


@st.composite
def level_tables(draw):
    """Exponents of a rank table summed from per-good weights, with a few
    cells overwritten (None or any exponent, the empty bundle included)."""
    weights = draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    top = draw(st.integers(1, 12))
    table = [
        None if bundle == 0 else top - min(top, max(1, sum(weights[g] for g in members(bundle))))
        for bundle in ALL_BUNDLES
    ]
    for bundle, exponent in draw(st.lists(st.tuples(bundles, exponents), max_size=4)):
        table[bundle] = exponent
    return table


@st.composite
def coverage_tables(draw):
    atoms = draw(st.lists(st.tuples(st.integers(1, FULL_BUNDLE), st.integers(1, 9)), min_size=1, max_size=6))
    table = [sum(w for covered, w in atoms if bundle & covered) for bundle in ALL_BUNDLES]
    for bundle, delta in draw(st.lists(st.tuples(bundles, st.integers(-3, 3)), max_size=3)):
        table[bundle] += delta
    return table


@st.composite
def rank_key_tables(draw):
    ranks = draw(st.lists(st.integers(1, 4), min_size=256, max_size=256))
    keys = [3 * r for r in ranks]
    for bundle, delta in draw(st.lists(st.tuples(bundles, st.integers(-4, 4)), max_size=4)):
        keys[bundle] += delta
    return ranks, keys


@HYPOTHESIS
@given(st.one_of(level_tables(), st.lists(exponents, min_size=256, max_size=256)))
def test_generated_subadditive_matches_reference(table):
    assert_subadditive_matches(table)


@HYPOTHESIS
@given(coverage_tables())
def test_generated_submodular_matches_reference(table):
    assert_submodular_matches(table)


@HYPOTHESIS
@given(rank_key_tables())
def test_generated_strict_consistency_matches_reference(tables):
    assert_strict_matches(*tables)
