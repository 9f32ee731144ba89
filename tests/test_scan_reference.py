"""Differential checks: the allocation scans against a per-good reference.

The reference walks every allocation, agent, other bundle and removed good
explicitly, the way the scans worked before they were rebuilt around
per-agent reduction maxima.  Ordinal EFX comes from oracles.naive_is_efx,
cardinal EFX from the realization's own values, the deficit from an
explicit loop over rank gaps, and the scaled condition from
compare_scaled on every (own, reduced) level pair.  The subjects are the
built-in profiles and seeded random templates with their level and
coverage realizations.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from helpers import identical_agents_doc, random_template_doc
from oracles import naive_efx_feasible, naive_is_efx, scaled_efx_counters, scaled_pair_groups

from efxcheck.cardinal import ApproxFactor, LevelValue, build_coverage, build_subadditive, compare_scaled
from efxcheck.core import N_AGENTS, N_ALLOCATIONS, allocation_from_counter, members
from efxcheck.ordinal import builtin_profile, load_template, rotate_allocation
from efxcheck.verify import (
    Profile,
    builtin,
    compute_deficit_profile,
    verify_cyclic_symmetry,
    verify_lemma_first_pair,
    verify_no_alpha_efx,
    verify_no_efx,
    verify_size_pattern_props,
    verify_transfer,
)

FACTORS = ("1", "0.95", "9/10", "lambda^1", "0.8", "lambda^2", "1/2", "lambda^7/2", "1/10", "1e-30")
TEMPLATE_SEEDS = (3, 11, 29, 47)


def subjects() -> list[tuple[str, Profile]]:
    found = [(f"builtin-{kind}", builtin(kind)) for kind in ("ordinal", "subadditive", "coverage")]
    for seed in TEMPLATE_SEEDS:
        _, ordinal = load_template(random_template_doc(seed))
        found.append((f"seed{seed}-ordinal", Profile(kind="ordinal", ordinal=ordinal)))
        found.append((
            f"seed{seed}-subadditive",
            Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal)),
        ))
        found.append((
            f"seed{seed}-coverage",
            Profile(kind="coverage", ordinal=ordinal, coverage=build_coverage(ordinal)),
        ))
    return found


SUBJECTS = subjects()


def cases(*kinds: str) -> list:
    return [pytest.param(profile, id=name) for name, profile in SUBJECTS if profile.kind in kinds]


def value_function(profile: Profile):
    if profile.kind == "ordinal":
        return lambda agent, bundle: profile.ordinal.rank_tables[agent][bundle]
    if profile.kind == "coverage":
        return profile.coverage.value
    return profile.subadditive.value


def strong_envy_pairs(allocation, agent: int):
    """(own bundle, other bundle minus one good) for every other bundle and
    every good in it."""
    for j in range(N_AGENTS):
        if j == agent:
            continue
        for g in members(allocation[j]):
            yield allocation[agent], allocation[j] ^ (1 << g)


def reference_efx(profile: Profile) -> list[int]:
    value = value_function(profile)
    found = []
    for counter in range(N_ALLOCATIONS):
        allocation = allocation_from_counter(counter)
        if profile.kind == "ordinal":
            efx = naive_is_efx(allocation, profile.ordinal.rank_tables)
        else:
            efx = all(
                not value(i, reduced) > value(i, own)
                for i in range(N_AGENTS)
                for own, reduced in strong_envy_pairs(allocation, i)
            )
        if efx:
            found.append(counter)
    return found


@lru_cache(maxsize=None)
def reference_ordinal_status(profile: Profile) -> tuple[tuple[tuple[int, int, int], bool, bool], ...]:
    """Per allocation in counter order: the bundle sizes, whether agent 0
    is EFX-feasible, and whether the allocation is EFX."""
    ranks = profile.ordinal.rank_tables
    found = []
    for counter in range(N_ALLOCATIONS):
        allocation = allocation_from_counter(counter)
        sizes = tuple(len(members(bundle)) for bundle in allocation)
        found.append((sizes, naive_efx_feasible(0, allocation, ranks), naive_is_efx(allocation, ranks)))
    return tuple(found)


def reference_deficits(profile: Profile) -> tuple[int, ...]:
    ranks = profile.ordinal.rank_tables
    deficits = []
    for counter in range(N_ALLOCATIONS):
        allocation = allocation_from_counter(counter)
        worst = 0
        for i in range(N_AGENTS):
            for own, reduced in strong_envy_pairs(allocation, i):
                worst = max(worst, ranks[i][reduced] - ranks[i][own])
        deficits.append(worst)
    return tuple(deficits)


def reference_scaled_counts(profile: Profile) -> dict[str, int]:
    """Scaled-EFX count per factor.  Allocations are grouped by the set of
    (own, reduced) level exponents they must satisfy
    (oracles.scaled_pair_groups), and each distinct pair is decided by
    compare_scaled once per factor."""
    groups = scaled_pair_groups(profile.subadditive.exponent_tables)
    counts = {}
    for text in FACTORS:
        alpha = ApproxFactor.parse(text)
        counts[text] = len(
            scaled_efx_counters(groups, lambda own, reduced: compare_scaled(level(own), alpha, level(reduced)))
        )
    return counts


def level(exponent: int | None) -> LevelValue:
    return LevelValue.zero() if exponent is None else LevelValue.power(exponent)


@pytest.mark.parametrize("profile", cases("ordinal", "subadditive", "coverage"))
def test_efx_set_matches_reference(profile):
    report = verify_no_efx(profile, witness_limit=N_ALLOCATIONS)
    found = [
        tuple(sum(1 << g for g in goods) for goods in witness.allocation)
        for witness in report.witnesses
    ]
    expected = reference_efx(profile)
    assert found == [allocation_from_counter(c) for c in expected]
    assert dict(report.breakdown)["efx_allocations"] == len(expected)
    cyclic = verify_cyclic_symmetry(profile)
    assert dict(cyclic.breakdown)["efx_allocations"] == len(expected)


@pytest.mark.parametrize("profile", cases("ordinal"))
def test_deficits_match_reference(profile):
    deficit = compute_deficit_profile(profile)
    expected = reference_deficits(profile)
    assert deficit.deficits == expected
    assert deficit.d_star == min(expected)
    assert deficit.argmin_count == expected.count(min(expected))


@pytest.mark.parametrize("profile", cases("subadditive"))
def test_scaled_counts_match_reference(profile):
    expected = reference_scaled_counts(profile)
    found = {
        text: dict(verify_no_alpha_efx(profile, ApproxFactor.parse(text), witness_limit=0).breakdown)[
            "alpha_efx_allocations"
        ]
        for text in FACTORS
    }
    assert found == expected


@pytest.mark.parametrize("profile", cases("subadditive", "coverage"))
def test_transfer_matches_reference(profile):
    ranks = profile.ordinal.rank_tables
    value = value_function(profile)
    triples = 0
    violations = []
    for counter in range(N_ALLOCATIONS):
        allocation = allocation_from_counter(counter)
        for i in range(N_AGENTS):
            for j in range(N_AGENTS):
                if j == i:
                    continue
                for g in members(allocation[j]):
                    reduced = allocation[j] ^ (1 << g)
                    if ranks[i][reduced] > ranks[i][allocation[i]]:
                        triples += 1
                        if not value(i, reduced) > value(i, allocation[i]):
                            violations.append((counter, i, j, g))
    ordinal = Profile(kind="ordinal", ordinal=profile.ordinal)
    report = verify_transfer(ordinal, profile, witness_limit=10)
    assert report.checked == triples
    assert report.passed == (not violations)
    found = [
        (tuple(sum(1 << g for g in goods) for goods in w.allocation), w.agent_i, w.agent_j, w.good_g)
        for w in report.witnesses
    ]
    assert found == [(allocation_from_counter(c), i, j, g) for c, i, j, g in violations[:10]]


def test_cyclic_mismatches_match_reference():
    # Agent 1 made indifferent breaks the symmetry, so rotation changes
    # the EFX status of some allocations.
    base = builtin_profile()
    _, flat = load_template(identical_agents_doc())
    skewed = base.replace(rank_tables=(base.rank_tables[0], flat.rank_tables[1], base.rank_tables[2]))
    expected = [
        counter
        for counter in range(N_ALLOCATIONS)
        if naive_is_efx(allocation_from_counter(counter), skewed.rank_tables)
        != naive_is_efx(rotate_allocation(allocation_from_counter(counter), skewed.permutation), skewed.rank_tables)
    ]
    assert expected
    report = verify_cyclic_symmetry(Profile(kind="ordinal", ordinal=skewed), witness_limit=10)
    assert not report.passed
    found = [tuple(sum(1 << g for g in goods) for goods in w.allocation) for w in report.witnesses]
    assert found == [allocation_from_counter(c) for c in expected[:10]]
    # Each witness names its own direction.
    assert [(w.lhs, w.rhs) for w in report.witnesses] == [
        ("EFX", "not EFX after rotation")
        if naive_is_efx(allocation_from_counter(c), skewed.rank_tables)
        else ("not EFX", "EFX after rotation")
        for c in expected[:10]
    ]


def witness_counters(report) -> list[int]:
    """Good g of a witness allocation goes to agent digit g of its counter."""
    return [sum(agent * 3**g for agent, goods in enumerate(w.allocation) for g in goods) for w in report.witnesses]


@pytest.mark.parametrize("profile", cases("ordinal"))
def test_first_pair_matches_reference(profile):
    labels = profile.ordinal.support_labels
    checked = 0
    label_counts: dict[str, int] = {}
    violations = []
    for counter, (sizes, feasible0, _) in enumerate(reference_ordinal_status(profile)):
        if sizes[0] != 2 or sizes[1] < 2 or sizes[2] < 2:
            continue
        checked += 1
        if feasible0:
            label = labels[allocation_from_counter(counter)[0]]
            label_counts[label] = label_counts.get(label, 0) + 1
            if label not in ("Ax", "Ay", "BC", "By", "Cy"):
                violations.append(counter)
    report = verify_lemma_first_pair(profile, witness_limit=10)
    assert report.universe == report.checked == checked
    assert report.passed == (not violations)
    assert dict(report.breakdown) == {f"feasible_first_pair[{label}]": n for label, n in label_counts.items()}
    assert witness_counters(report) == violations[:10]


@pytest.mark.parametrize("profile", cases("ordinal"))
def test_size_patterns_match_reference(profile):
    classes = {"small_first": [0, []], "(2,2,4)": [0, []], "(2,3,3)": [0, []]}
    for counter, (sizes, _, efx) in enumerate(reference_ordinal_status(profile)):
        if sizes[0] <= 1:
            name = "small_first"
        elif sizes in ((2, 2, 4), (2, 3, 3)):
            name = f"({sizes[0]},{sizes[1]},{sizes[2]})"
        else:
            continue
        classes[name][0] += 1
        if efx:
            classes[name][1].append(counter)
    report = verify_size_pattern_props(profile, witness_limit=10)
    total = sum(universe for universe, _ in classes.values())
    assert report.universe == report.checked == total == 256 + 8 * 128 + 420 + 560
    assert report.passed == (not any(efx for _, efx in classes.values()))
    expected = {"size_triples_covered": 1}
    for name, (universe, efx) in classes.items():
        expected[f"universe[{name}]"] = universe
        expected[f"efx[{name}]"] = len(efx)
    assert dict(report.breakdown) == expected
    # Witnesses run class by class, in counter order within a class.
    assert witness_counters(report) == [c for _, efx in classes.values() for c in efx][:10]
