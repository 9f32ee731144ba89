"""Differential checks: the bundle-pair property checks against full pair loops.

The references below walk every bundle pair (or nested pair) explicitly,
the way the checks worked before they learned to skip rows that an exact
bound rules out and to stop once their witnesses are full.  Each reference
runs once at the largest witness limit; its report at a smaller limit is
the same report with the witness list cut to that limit, because the loops
record witnesses in scan order.  Reports are compared whole.

Subadditivity sums are signed by the exact ring arithmetic in oracles,
not by efxcheck's level_sum_compare.  Support collapse is checked against
classes of frozensets of type names, with each good's type read off the
template document itself.

Subjects: the built-in tables, seeded random tables (many of which fail,
with None exponents on nonempty bundles, a non-None exponent on the empty
bundle, rank ties and perturbed coverage tables), doctored monotone and
support tables (a single violation in the last lane, more than 128
distinct keys), and tables generated by Hypothesis with a fixed seed and
no example database.

Submodularity and strict consistency are each decided by one whole-table
comparison in lanes.  Their gates: doctored tables with a single
violation in the last triple or bundle, passing tables other than the
built-ins (coverage from random atoms is always submodular), and tables
whose spread forces wider lanes (negative values, a spread of at least
64).  Subadditivity is decided by one sum, twice the least nonempty
value against the greatest, and otherwise walks the rows S with
value(S) + m < M.  Its gates: the built-in makes one sum per table and
visits no pair, a doctored table walks its one open row, and on monotone
level tables (built-in, seeded templates at top_rank 7, 8 and 30, and
generated) those rows are exactly the rows a bound read from each row's
supersets leaves, signed by the exact ring arithmetic.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_template_doc, run_cli
from oracles import exact_level_sign

from efxcheck import verify
from efxcheck.cardinal import build_coverage, build_subadditive
from efxcheck.core import ALL_BUNDLES, FULL_BUNDLE, GOODS, members, submodular_index, sum_lane_width
from efxcheck.ordinal import bundled_instance_text, load_template
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
    level_keys,
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
    return exact_level_sign([e_first, e_second], e_union)


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


def document_types(doc: str) -> dict[int, str]:
    """Each good's type name, read off a template document's types and
    special goods."""
    data = json.loads(doc)
    types = {g: entry["name"] for entry in data["types"] for g in entry["goods"]}
    types.update({g: name for name, g in data["special_goods"].items()})
    return types


def reference_support_collapse(value_table, types, claim, witness_limit=10):
    """Each bundle against the first bundle whose goods have the same set
    of type names."""
    first: dict[frozenset[str], int] = {}
    witnesses, violations = [], 0
    for bundle in ALL_BUNDLES:
        support = frozenset(types[g] for g in frozenset(members(bundle)))
        representative = first.setdefault(support, bundle)
        if value_table[bundle] != value_table[representative]:
            violations += 1
            if len(witnesses) < witness_limit:
                witnesses.append(
                    Witness(
                        bundle_s=members(representative),
                        bundle_t=members(bundle),
                        lhs=value_table[representative],
                        rhs=value_table[bundle],
                    )
                )
    report = _verdict(claim, len(ALL_BUNDLES), violations, witnesses)
    return report.replace(breakdown=(("support_classes", len(first)),))


def reference_suite(profile: Profile, types: dict[int, str], witness_limit: int) -> list[VerdictReport]:
    """property_reports for a profile, with every report that walks
    bundles or bundle pairs taken from the loops above; types gives each
    good's type name."""
    ordinal = profile.ordinal
    reports = []
    if profile.kind == "ordinal":
        reports += [
            reference_monotone(table, f"monotone(rank[{agent}])", witness_limit=witness_limit)
            for agent, table in enumerate(ordinal.rank_tables)
        ]
        reports += [
            reference_support_collapse(table, types, f"support_collapse(rank[{agent}])", witness_limit)
            for agent, table in enumerate(ordinal.rank_tables)
        ]
        return reports
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
            reference_support_collapse(table, types, f"support_collapse(coverage[{agent}])", witness_limit),
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


def template_subjects() -> list[tuple[dict[int, str], Profile]]:
    """(each good's type name, profile) for every seeded template and kind."""
    found = []
    for seed in TEMPLATE_SEEDS:
        doc = random_template_doc(seed)
        types = document_types(doc)
        _, ordinal = load_template(doc)
        found.append((types, Profile(kind="ordinal", ordinal=ordinal)))
        found.append((types, Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal))))
        found.append((types, Profile(kind="coverage", ordinal=ordinal, coverage=build_coverage(ordinal))))
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
    "subject", template_subjects(), ids=[f"seed{s}-{k}" for s in TEMPLATE_SEEDS for k in ("ord", "sub", "cov")]
)
def test_template_suites_match_reference(subject, limit):
    types, profile = subject
    assert property_reports(profile, witness_limit=limit) == reference_suite(profile, types, limit)


def test_template_suites_cover_both_verdicts():
    verdicts = {
        report.verdict
        for _, profile in template_subjects()
        for report in property_reports(profile)
        if report.claim.startswith("support_collapse")
    }
    assert verdicts == {"pass", "fail"}


def _doctored_monotone_tables() -> dict[str, tuple[int, ...]]:
    rng = random.Random(25)
    sizes = [bundle.bit_count() for bundle in ALL_BUNDLES]
    shuffled = list(ALL_BUNDLES)
    rng.shuffle(shuffled)
    return {
        # 254 holds every good but good 0, the last (bundle, good) pair in
        # scan order that can break monotonicity; 127 holds every good but
        # good 7, the last lane of the extension blocks that can.
        "last-pair-in-scan": tuple(17 if bundle == 254 else 2 * size for bundle, size in enumerate(sizes)),
        "last-lane-in-blocks": tuple(17 if bundle == 127 else 2 * size for bundle, size in enumerate(sizes)),
        # 256 distinct keys: the bundles themselves, which grow with every
        # added good, then with one key lowered, then shuffled.
        "distinct-monotone": tuple(ALL_BUNDLES),
        "distinct-one-drop": tuple(-1 if bundle == FULL_BUNDLE else bundle for bundle in ALL_BUNDLES),
        "distinct-shuffled": tuple(shuffled),
        "distinct-129": tuple(min(bundle, 128) * 10**9 for bundle in ALL_BUNDLES),
    }


@pytest.mark.parametrize("limit", (0, 1, 10))
@pytest.mark.parametrize("name", _doctored_monotone_tables())
def test_doctored_monotone_tables_match_reference(name, limit):
    table = _doctored_monotone_tables()[name]
    full = reference_monotone(table, "claim", witness_limit=10)
    assert check_monotone(table, "claim", witness_limit=limit) == full.replace(witnesses=full.witnesses[:limit])
    if name.startswith("last"):
        assert len(full.witnesses) == 1


@pytest.mark.parametrize("limit", (0, 1, 10))
def test_doctored_support_collapse_matches_reference(limit):
    doc = bundled_instance_text()
    labels = load_template(doc)[1].support_labels
    types = document_types(doc)
    ranks = builtin("ordinal").ordinal.rank_tables[0]
    coverage = builtin("coverage").coverage.value_tables[0]
    for table in (coverage, coverage[:-1] + (coverage[-1] + 1,), ranks, tuple(range(256))):
        full = reference_support_collapse(table, types, "claim", witness_limit=10)
        expected = full.replace(witnesses=full.witnesses[:limit])
        assert check_support_collapse(table, labels, "claim", witness_limit=limit) == expected


# --- whole-table decisions -----------------------------------------------------

# (scale, offset) of a doctored table's values: one-byte lanes, a spread
# of at least 64, negative values, and both.
LANE_SCALES = ((1, 0), (100, 0), (1, -10**6), (10**9, -(10**12)))
DOCTORED_LIMITS = (0, 1, 10)


def assert_cut_matches(check, reference, *tables, limit):
    full = reference(*tables, "claim", witness_limit=max(DOCTORED_LIMITS))
    assert check(*tables, "claim", witness_limit=limit) == full.replace(witnesses=full.witnesses[:limit])
    return full


def _last_triple_coverage(scale: int, offset: int) -> tuple[int, ...]:
    """offset + scale * a coverage function whose local test has slack in
    every triple but the last one, S = goods 2..7 with g = 0 and h = 1:
    a weight-one atom on each pair of goods 2..7, and atoms {0, 7},
    {1, 6} and {0, 1, 5}, each of which meets S.  Raising the value of S
    by one then breaks that triple alone."""
    atoms = [(1 << a | 1 << b, 1) for a in range(2, 8) for b in range(a + 1, 8)]
    atoms += [(0b10000001, 1), (0b1000010, 1), (0b100011, 1)]
    return tuple(offset + scale * sum(w for covered, w in atoms if bundle & covered) for bundle in ALL_BUNDLES)


@pytest.mark.parametrize("limit", DOCTORED_LIMITS)
@pytest.mark.parametrize("scale, offset", LANE_SCALES)
def test_submodular_single_violation_in_the_last_triple(scale, offset, limit):
    last = 0b11111100
    assert [column[-1] for column in submodular_index()] == [last | 1, last | 2, FULL_BUNDLE, last]
    passing = _last_triple_coverage(scale, offset)
    failing = tuple(value + (bundle == last) for bundle, value in enumerate(passing))
    assert (sum_lane_width(max(passing) - min(passing)) == 1) == (scale == 1)
    assert assert_cut_matches(check_submodular, reference_submodular, passing, limit=limit).passed
    assert not assert_cut_matches(check_submodular, reference_submodular, failing, limit=limit).passed


@pytest.mark.parametrize("scale, offset", LANE_SCALES)
@pytest.mark.parametrize("seed", range(8))
def test_coverage_from_random_atoms_passes_submodularity(seed, scale, offset):
    rng = random.Random(seed)
    atoms = [(rng.randint(1, FULL_BUNDLE), rng.randint(1, 9)) for _ in range(rng.randint(1, 11))]
    table = tuple(offset + scale * sum(w for covered, w in atoms if bundle & covered) for bundle in ALL_BUNDLES)
    assert assert_cut_matches(check_submodular, reference_submodular, table, limit=10).passed


@pytest.mark.parametrize("limit", DOCTORED_LIMITS)
@pytest.mark.parametrize("scale, offset", LANE_SCALES)
def test_strict_consistency_single_violation_in_the_last_bundle(scale, offset, limit):
    ranks = builtin("ordinal").ordinal.rank_tables[0]
    assert ranks[FULL_BUNDLE] == max(ranks) and max(ranks) - 1 in ranks
    passing = tuple(offset + scale * rank for rank in ranks)
    # The full bundle's key drops to the next rank's: it ties every bundle
    # of that rank, and no other pair breaks.
    failing = passing[:FULL_BUNDLE] + (offset + scale * (max(ranks) - 1),)
    check, reference = check_strict_consistency, reference_strict_consistency
    assert assert_cut_matches(check, reference, ranks, passing, limit=limit).passed
    full = assert_cut_matches(check, reference, ranks, failing, limit=limit)
    assert not full.passed and {w.bundle_s for w in full.witnesses} == {members(FULL_BUNDLE)}


@lru_cache(maxsize=1)
def _supersets() -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(s for s in ALL_BUNDLES if s & bundle == bundle) for bundle in ALL_BUNDLES)


def reference_unbounded_rows(exponent_table) -> list[int]:
    """1 for each nonempty S whose row the subadditive bound cannot skip:
    value(S) + m < U(S), with m the least value of a nonempty bundle and
    U(S) the greatest over the supersets of S, signed in the exact ring."""
    nonempty = exponent_table[1:]
    least = None if None in nonempty else max(nonempty)
    rows = []
    for first in ALL_BUNDLES[1:]:
        # The greatest value is the least exponent; zero only if all are.
        present = [exponent_table[s] for s in _supersets()[first] if exponent_table[s] is not None]
        rows.append(int(_sum_sign(exponent_table[first], least, min(present, default=None)) < 0))
    return rows


def sum_rule_rows(exponent_table) -> list[int]:
    """1 for each nonempty S with value(S) + m < M, m the least value of a
    nonempty bundle and M the greatest value, signed in the exact ring:
    the rows check_subadditive walks once m + m < M."""
    nonempty = exponent_table[1:]
    least = None if None in nonempty else max(nonempty)
    greatest = min((e for e in exponent_table if e is not None), default=None)
    return [int(_sum_sign(e, least, greatest) < 0) for e in nonempty]


def assert_sum_rule_rows_match_superset_bound(exponent_table):
    """On a monotone level table the greatest value is every superset
    maximum's, so the sum rule leaves the walk the rows the per-row
    superset bound left it."""
    keys = level_keys(tuple(exponent_table))
    assert all(keys[bundle | 1 << g] >= keys[bundle] for bundle in ALL_BUNDLES for g in GOODS)
    assert sum_rule_rows(exponent_table) == reference_unbounded_rows(exponent_table)


def _doctored_exponent_tables() -> dict[str, tuple[int | None, ...]]:
    builtin_table = builtin("subadditive").subadditive.exponent_tables[0]
    top_rank_30 = json.loads(bundled_instance_text())
    top_rank_30["top_rank"] = 30
    return {
        "builtin": builtin_table,
        # Every bundle worth 1 but bundle 254, worth q**7: only its row,
        # the last row that can be left to the walk, is, and it passes.
        "last-row-only": tuple(7 if bundle == 254 else 0 for bundle in ALL_BUNDLES),
        "top-rank-30": build_subadditive(load_template(json.dumps(top_rank_30))[1]).exponent_tables[0],
        "scaled-1000": tuple(None if e is None else 1000 * e for e in builtin_table),
        "shifted-up": tuple(None if e is None else e + 30 for e in builtin_table),
        "zero-nonempty": builtin_table[:5] + (None,) + builtin_table[6:],
        "doubled": tuple(None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES),
    }


@pytest.mark.parametrize("limit", DOCTORED_LIMITS)
@pytest.mark.parametrize("name", _doctored_exponent_tables())
def test_subadditive_rows_left_to_the_walk_match_exact_bound(name, limit):
    table = _doctored_exponent_tables()[name]
    expected_rows = reference_unbounded_rows(table)
    full = assert_cut_matches(check_subadditive, reference_subadditive, table, limit=limit)
    if name in ("builtin", "shifted-up"):
        assert full.passed and not any(expected_rows)
    if name == "last-row-only":
        assert full.passed and expected_rows == [0] * 253 + [1, 0]
    if name == "scaled-1000":
        assert not full.passed and sum_lane_width(max(level_keys(table))) == 2


@lru_cache(maxsize=1)
def _monotone_level_tables() -> dict[str, tuple[int | None, ...]]:
    """The built-in level tables, and each seeded template's at top_rank 7,
    8 and 30 (pair ranks clamped to the top rank)."""
    found = {f"builtin-{agent}": table for agent, table in enumerate(builtin("subadditive").subadditive.exponent_tables)}
    for seed in TEMPLATE_SEEDS:
        for top_rank in (7, 8, 30):
            doc = json.loads(random_template_doc(seed))
            doc["top_rank"] = top_rank
            for row in doc["pair_ranks"].values():
                for key in row:
                    row[key] = min(row[key], top_rank)
            tables = build_subadditive(load_template(json.dumps(doc))[1]).exponent_tables
            found.update((f"seed{seed}-top{top_rank}-{agent}", table) for agent, table in enumerate(tables))
    return found


@pytest.mark.parametrize("name", _monotone_level_tables())
def test_sum_rule_rows_match_superset_bound_on_built_tables(name):
    assert_sum_rule_rows_match_superset_bound(_monotone_level_tables()[name])


def _count_level_sum_signs(monkeypatch) -> list[tuple]:
    calls: list[tuple] = []
    sign = verify._level_sum_sign

    def counted(*exponents):
        calls.append(exponents)
        return sign(*exponents)

    monkeypatch.setattr(verify, "_level_sum_sign", counted)
    return calls


def test_builtin_subadditive_properties_visit_no_pair(monkeypatch):
    """One sum per agent table decides the built-in: twice the least
    nonempty value, q**6 + q**6, is the greatest, q**0."""
    calls = _count_level_sum_signs(monkeypatch)
    code, out, _ = run_cli(["properties", "subadditive"])
    assert code == 0 and out
    assert 0 < len(calls) <= len(builtin("subadditive").subadditive.exponent_tables)


def test_last_row_only_walks_one_row(monkeypatch):
    """The whole sum fails, so the distinct row exponents are signed, and
    only bundle 254's row of 255 pairs is walked: fewer calls than two
    rows of pairs."""
    calls = _count_level_sum_signs(monkeypatch)
    assert check_subadditive(_doctored_exponent_tables()["last-row-only"], "subadditive").passed
    assert len(ALL_BUNDLES) - 1 <= len(calls) < 2 * (len(ALL_BUNDLES) - 1)


# --- generated tables ------------------------------------------------------------

exponents = st.one_of(st.none(), st.integers(0, 9))
bundles = st.integers(0, FULL_BUNDLE)


@st.composite
def level_tables(draw, overwrites=4):
    """Exponents of a rank table summed from per-good weights, with up to
    overwrites cells overwritten (None or any exponent, the empty bundle
    included).  With none overwritten the table is monotone."""
    weights = draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    top = draw(st.integers(1, 12))
    table = [
        None if bundle == 0 else top - min(top, max(1, sum(weights[g] for g in members(bundle))))
        for bundle in ALL_BUNDLES
    ]
    for bundle, exponent in draw(st.lists(st.tuples(bundles, exponents), max_size=overwrites)):
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
@given(level_tables(overwrites=0))
def test_generated_sum_rule_rows_match_superset_bound(table):
    assert_sum_rule_rows_match_superset_bound(table)


@HYPOTHESIS
@given(coverage_tables())
def test_generated_submodular_matches_reference(table):
    assert_submodular_matches(table)


@HYPOTHESIS
@given(rank_key_tables())
def test_generated_strict_consistency_matches_reference(tables):
    assert_strict_matches(*tables)
