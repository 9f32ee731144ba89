"""Differential checks: the allocation scans against a per-good reference.

The reference is the set-based oracle in oracles.py: every allocation
decoded literally, and every agent, other bundle and removed good walked
explicitly, the way the scans worked before they were rebuilt around
per-agent reduction maxima.  EFX, agent-0 feasibility, deficits and
transfer are read from the subject's own values (ranks, level values or
coverage values), and the scaled condition from compare_scaled on every
(own, reduced) level pair.  Witnesses are compared by counters computed
literally from their goods.  The subjects are the built-in profiles and
seeded random templates with their level and coverage realizations.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from helpers import identical_agents_doc, random_template_doc
from oracles import (
    agent_feasible,
    counter_of,
    deficits,
    efx_counters,
    first_witnesses,
    keyed,
    mask,
    rotated_counter,
    scaled_efx_counters,
    scaled_pair_groups,
    transfer,
    universe,
)

from efxcheck.cardinal import ApproxFactor, LevelValue, build_coverage, build_subadditive, compare_scaled
from efxcheck.core import N_ALLOCATIONS
from efxcheck.ordinal import builtin_profile, load_template
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


def values_of(profile: Profile) -> tuple[dict, ...]:
    """The profile's own values keyed by frozenset: ranks, level values or
    coverage values."""
    if profile.kind == "ordinal":
        return keyed(profile.ordinal.rank_tables)
    return keyed((profile.subadditive or profile.coverage).value)


def witness_counters(report) -> list[int]:
    return [counter_of(w.allocation) for w in report.witnesses]


@lru_cache(maxsize=None)
def reference_ordinal_status(profile: Profile) -> tuple[tuple[tuple[int, int, int], bool, bool], ...]:
    """Per allocation in counter order: the bundle sizes, whether agent 0
    is EFX-feasible, and whether the allocation is EFX."""
    ranks = keyed(profile.ordinal.rank_tables)
    return tuple(
        (tuple(map(len, bundles)), feasible0, witness is None)
        for (bundles, _), feasible0, witness in zip(universe(), agent_feasible(ranks, 0), first_witnesses(ranks))
    )


def reference_scaled_counts(profile: Profile) -> dict[str, int]:
    """Scaled-EFX count per factor.  Allocations are grouped by the set of
    (own, reduced) level exponents they must satisfy
    (oracles.scaled_pair_groups), and each distinct pair is decided by
    compare_scaled once per factor."""
    groups = scaled_pair_groups(keyed(profile.subadditive.exponent_tables))
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
    expected = efx_counters(values_of(profile))
    assert witness_counters(report) == expected
    assert dict(report.breakdown)["efx_allocations"] == len(expected)
    cyclic = verify_cyclic_symmetry(profile)
    assert dict(cyclic.breakdown)["efx_allocations"] == len(expected)


@pytest.mark.parametrize("profile", cases("ordinal"))
def test_deficits_match_reference(profile):
    deficit = compute_deficit_profile(profile)
    expected = deficits(keyed(profile.ordinal.rank_tables))
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
    triples, violations = transfer(keyed(profile.ordinal.rank_tables), values_of(profile))
    ordinal = Profile(kind="ordinal", ordinal=profile.ordinal)
    report = verify_transfer(ordinal, profile, witness_limit=10)
    assert report.checked == triples
    assert report.passed == (not violations)
    found = [(counter_of(w.allocation), w.agent_i, w.agent_j, w.good_g) for w in report.witnesses]
    assert found == violations[:10]


def test_cyclic_mismatches_match_reference():
    # Agent 1 made indifferent breaks the symmetry, so rotation changes
    # the EFX status of some allocations.
    base = builtin_profile()
    _, flat = load_template(identical_agents_doc())
    skewed = base.replace(rank_tables=(base.rank_tables[0], flat.rank_tables[1], base.rank_tables[2]))
    efx = [witness is None for witness in first_witnesses(keyed(skewed.rank_tables))]
    expected = [
        counter
        for counter, (bundles, _) in enumerate(universe())
        if efx[counter] != efx[rotated_counter(bundles, skewed.permutation)]
    ]
    assert expected
    report = verify_cyclic_symmetry(Profile(kind="ordinal", ordinal=skewed), witness_limit=10)
    assert not report.passed
    assert witness_counters(report) == expected[:10]
    # Each witness names its own direction.
    assert [(w.lhs, w.rhs) for w in report.witnesses] == [
        ("EFX", "not EFX after rotation") if efx[c] else ("not EFX", "EFX after rotation") for c in expected[:10]
    ]


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
            label = labels[mask(universe()[counter][0][0])]
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
