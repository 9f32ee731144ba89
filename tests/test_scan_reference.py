"""Differential checks: the allocation scans against a per-good reference.

The reference walks every allocation, agent, other bundle and removed good
explicitly, the way the scans worked before they were rebuilt around
per-agent reduction maxima.  Ordinal EFX comes from ordinal.is_efx,
cardinal EFX from the realization's own values, the deficit from an
explicit loop over rank gaps, and the scaled condition from
compare_scaled on every (own, reduced) level pair.  The subjects are the
built-in profiles and seeded random templates with their level and
coverage realizations.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import identical_agents_doc, random_template_doc

from efxcheck.cardinal import ApproxFactor, LevelValue, build_coverage, build_subadditive, compare_scaled
from efxcheck.core import N_AGENTS, N_ALLOCATIONS, allocation_from_counter, members, rotate_allocation
from efxcheck.ordinal import builtin_profile, is_efx, load_template
from efxcheck.verify import (
    Profile,
    builtin,
    compute_deficit_profile,
    verify_cyclic_symmetry,
    verify_no_alpha_efx,
    verify_no_efx,
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
            efx = is_efx(allocation, profile.ordinal)
        else:
            efx = all(
                not value(i, reduced) > value(i, own)
                for i in range(N_AGENTS)
                for own, reduced in strong_envy_pairs(allocation, i)
            )
        if efx:
            found.append(counter)
    return found


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
    (own, reduced) level exponents they must satisfy, and each distinct
    pair is decided by compare_scaled once per factor."""
    exponents = profile.subadditive.exponent_tables
    groups: dict[frozenset, int] = {}
    for counter in range(N_ALLOCATIONS):
        allocation = allocation_from_counter(counter)
        pairs = frozenset(
            (exponents[i][own], exponents[i][reduced])
            for i in range(N_AGENTS)
            for own, reduced in strong_envy_pairs(allocation, i)
        )
        groups[pairs] = groups.get(pairs, 0) + 1
    counts = {}
    for text in FACTORS:
        alpha = ApproxFactor.parse(text)
        holds = {
            pair: compare_scaled(level(pair[0]), alpha, level(pair[1]))
            for pair in frozenset().union(*groups)
        }
        counts[text] = sum(n for pairs, n in groups.items() if all(holds[pair] for pair in pairs))
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
    skewed = dataclasses.replace(
        base, rank_tables=(base.rank_tables[0], flat.rank_tables[1], base.rank_tables[2])
    )
    expected = [
        counter
        for counter in range(N_ALLOCATIONS)
        if is_efx(allocation_from_counter(counter), skewed)
        != is_efx(rotate_allocation(allocation_from_counter(counter), skewed.permutation), skewed)
    ]
    assert expected
    report = verify_cyclic_symmetry(Profile(kind="ordinal", ordinal=skewed), witness_limit=10)
    assert not report.passed
    found = [tuple(sum(1 << g for g in goods) for goods in w.allocation) for w in report.witnesses]
    assert found == [allocation_from_counter(c) for c in expected[:10]]
    assert {(w.lhs, w.rhs) for w in report.witnesses} == {("EFX", "not EFX after rotation")}
