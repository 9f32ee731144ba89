"""The cached columns under interleaved subjects.

One process alternates claims on the built-in profiles with the same
claims on templates of two other relabelings, and scaled scans at two
factors in between, and compares every report with the set-based oracle.
A status, rotation or size column cached under the wrong key, or kept
after its subject changed, would answer one subject with another's
column.  The templates have EFX allocations that no relabeling but their
own maps onto themselves, so a wrong rotation column shows as a cyclic
mismatch and a wrong status column as a wrong EFX list.
"""

from __future__ import annotations

import json
from collections import Counter

from helpers import random_template_doc, run_cli
from oracles import (
    RELABELING,
    agent_feasible,
    counter_of,
    efx_counters,
    keyed,
    rotated_counter,
    scaled_efx_counters,
    scaled_pair_groups,
    universe,
)

from efxcheck import core, tables, verify
from efxcheck.cardinal import ApproxFactor, LevelValue, build_subadditive, compare_scaled
from efxcheck.core import N_ALLOCATIONS
from efxcheck.ordinal import bundled_instance_text, load_template
from efxcheck.verify import (
    Profile,
    builtin,
    check_subadditive,
    compute_deficit_profile,
    profile_value_keys,
    verify_cyclic_symmetry,
    verify_no_alpha_efx,
    verify_no_efx,
)

TEMPLATE_SEED = 0
OTHER_RELABELINGS = ((2, 0, 1, 5, 3, 4, 6, 7), tuple(range(8)))


def template_subject(permutation: tuple[int, ...]) -> Profile:
    doc = json.loads(random_template_doc(TEMPLATE_SEED))
    doc["permutation"] = list(permutation)
    _, ordinal = load_template(json.dumps(doc))
    return Profile(kind="ordinal", ordinal=ordinal)


def sizes_breakdown(prefix: str, counters) -> dict[str, int]:
    sizes = Counter(tuple(map(len, universe()[counter][0])) for counter in counters)
    return {f"{prefix}({a},{b},{c})": n for (a, b, c), n in sizes.items()}


def expected_no_efx(values) -> tuple[list[int], dict[str, int]]:
    efx = efx_counters(values)
    feasible0 = [counter for counter, feasible in enumerate(agent_feasible(values, 0)) if feasible]
    return efx, {"efx_allocations": len(efx), **sizes_breakdown("feasible0", feasible0)}


def cyclic_mismatches(efx: list[int], permutation: tuple[int, ...]) -> list[int]:
    members = set(efx)
    return [
        counter
        for counter, (bundles, _) in enumerate(universe())
        if (counter in members) != (rotated_counter(bundles, permutation) in members)
    ]


def expected_scaled(profile: Profile, text: str) -> tuple[list[int], dict[str, int]]:
    alpha = ApproxFactor.parse(text)

    def level(exponent):
        return LevelValue.zero() if exponent is None else LevelValue.power(exponent)

    groups = scaled_pair_groups(keyed(profile.subadditive.exponent_tables))
    holds = scaled_efx_counters(groups, lambda own, reduced: compare_scaled(level(own), alpha, level(reduced)))
    return holds, {"alpha_efx_allocations": len(holds), **sizes_breakdown("alpha_efx", holds)}


def counters_of(report) -> list[int]:
    return [counter_of(w.allocation) for w in report.witnesses]


def test_interleaved_subjects_each_read_their_own_columns():
    ordinal, levels = builtin("ordinal"), builtin("subadditive")
    subjects = [(ordinal, RELABELING)] + [(template_subject(p), p) for p in OTHER_RELABELINGS]
    expected = {}
    for profile, permutation in subjects:
        efx, breakdown = expected_no_efx(keyed(profile.ordinal.rank_tables))
        assert not cyclic_mismatches(efx, permutation)
        if profile is not ordinal:
            # Only its own relabeling keeps this template's EFX set.
            assert efx and all(cyclic_mismatches(efx, other) for _, other in subjects if other != permutation)
        expected[permutation] = efx, breakdown
    scaled = {text: expected_scaled(levels, text) for text in ("9/10", "1/2")}
    assert not scaled["9/10"][0] and scaled["1/2"][0]

    for _ in range(2):
        for (profile, permutation), text in zip(subjects, ("9/10", "1/2", "9/10")):
            efx, breakdown = expected[permutation]
            cyclic = verify_cyclic_symmetry(profile, witness_limit=10)
            assert cyclic.passed and not cyclic.witnesses
            assert cyclic.breakdown == (("efx_allocations", len(efx)),)
            report = verify_no_efx(profile, witness_limit=N_ALLOCATIONS)
            assert counters_of(report) == efx
            assert dict(report.breakdown) == breakdown

            holds, scaled_breakdown = scaled[text]
            report = verify_no_alpha_efx(levels, ApproxFactor.parse(text), witness_limit=N_ALLOCATIONS)
            assert counters_of(report) == holds
            assert dict(report.breakdown) == scaled_breakdown


def test_level_keys_of_derived_profiles_are_the_rank_tables():
    for seed in range(20):
        _, ordinal = load_template(random_template_doc(seed))
        derived = Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal))
        assert profile_value_keys(derived) == ordinal.rank_tables, seed
    assert profile_value_keys(builtin("subadditive")) == builtin("ordinal").ordinal.rank_tables


def _single_bundle_payload() -> Profile:
    """Built-in subadditive with agent 0's exponent of {1, 2} raised from
    2 to 7: its level keys differ from the ranks, and it has EFX
    allocations where the built-in has none."""
    base = builtin("subadditive")
    tables = base.subadditive.exponent_tables
    assert tables[0][0b110] == 2
    raised = tables[0][:0b110] + (7,) + tables[0][0b110 + 1 :]
    return base.replace(subadditive=base.subadditive.replace(exponent_tables=(raised,) + tables[1:]))


def test_ordinal_and_subadditive_share_columns_and_a_payload_off_the_ranks_does_not():
    for cache in (verify._key_reduction, verify._status_column, verify._deficits):
        cache.cache_clear()
    ordinal, levels = builtin("ordinal"), builtin("subadditive")
    verify_no_efx(ordinal)
    verify_no_efx(levels)
    verify_no_alpha_efx(levels, ApproxFactor.parse("1/2"))
    compute_deficit_profile(ordinal)
    assert verify._status_column.cache_info().misses == 1
    assert verify._deficits.cache_info().misses == 1

    payload = _single_bundle_payload()
    assert profile_value_keys(payload) != ordinal.ordinal.rank_tables
    efx, breakdown = expected_no_efx(keyed(payload.subadditive.value))
    report = verify_no_efx(payload, witness_limit=N_ALLOCATIONS)
    assert efx and counters_of(report) == efx
    assert dict(report.breakdown) == breakdown
    holds, scaled_breakdown = expected_scaled(payload, "1/2")
    assert holds != expected_scaled(levels, "1/2")[0]
    report = verify_no_alpha_efx(payload, ApproxFactor.parse("1/2"), witness_limit=N_ALLOCATIONS)
    assert counters_of(report) == holds
    assert dict(report.breakdown) == scaled_breakdown


# The built-in command set: verify x3 (one scaled), properties x3, lemmas,
# alpha-star and tables.
BUILTIN_ARGV = (
    ["verify", "ordinal"],
    ["verify", "coverage"],
    ["verify", "subadditive", "--alpha", "1/2"],
    ["properties", "ordinal"],
    ["properties", "subadditive"],
    ["properties", "coverage"],
    ["lemmas"],
    ["alpha-star"],
    ["tables"],
)


def test_serving_the_builtin_commands_again_misses_no_cache():
    caches = (
        verify._key_reduction,
        verify._status_column,
        verify._deficits,
        verify._deficit_profile,
        verify._keeps_strict_order,
        verify._pair_sum_sign,
        verify._level_key_tables,
        verify._first_pair_candidates,
        core.submodular_index,
        core._good_masks,
        core.size_code_masks,
        tables._sized_bundles,
        tables._pair_keys,
        tables._triple_labels,
    )
    passes = []
    for _ in range(2):
        for argv in BUILTIN_ARGV:
            assert run_cli(argv)[0] == 0, argv
        passes.append([cache.cache_info().misses for cache in caches])
    assert passes[1] == passes[0]


def test_pair_sum_cache_stays_bounded_across_top_ranks():
    # Each top_rank shifts every exponent, so each suite reads exponent
    # triples that no earlier one did.  The cache is keyed by exponent
    # gaps, so after the first shift the shifted suites add no miss.  The
    # built-in table leaves no row to the walk; at top_rank 30 the walk
    # signs pairs.
    doc = json.loads(bundled_instance_text())
    doc["top_rank"] = 30
    walked = build_subadditive(load_template(json.dumps(doc))[1]).exponent_tables[0]
    verify._pair_sum_sign.cache_clear()
    for table in (builtin("subadditive").subadditive.exponent_tables[0], walked):
        before = check_subadditive(table, "subadditive")
        misses = []
        for shift in range(1, 41):
            check_subadditive(tuple(None if e is None else e + shift for e in table), "subadditive")
            misses.append(verify._pair_sum_sign.cache_info().misses)
        info = verify._pair_sum_sign.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert misses == misses[:1] * 40
        assert check_subadditive(table, "subadditive") == before
    assert misses[0] > 0
