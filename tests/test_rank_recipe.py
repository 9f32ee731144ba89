"""Differential checks: build_profile against the literal rank recipe.

build_profile ranks a bundle of three or more goods by the largest rank of
its one-good reductions, and builds relabeled images and support labels in
the same pass.  The reference in oracles.literal_profile reads the template
document literally, on frozensets: best internal pair for a triple, best
internal triple for a larger bundle, relabeling good by good.  Subjects:
the shipped instance, identical agents, 300 seeded random templates, and
Hypothesis-generated templates with random type partitions (types of one
to eight goods, special one-good types, names in any order), random top
ranks, exceptional triples with repeated types, and relabelings of order
dividing 3.

The generated templates also drive the EFX reads of efxcheck.verify (the
no-EFX scan, the deficit profile, cyclic symmetry, is_efx and
strong_envy_witness) against the set-based oracle in oracles.py over the
literal ranks, the no-EFX scan of the level realization against that of
the ranks, the scaled scan at every slack against exponent pairs of the
literal ranks decided by compare_scaled, the 1/2-scaled scan against a
theorem, and strict-order transfer under both cardinal realizations
against oracles.transfer.
"""

from __future__ import annotations

import json
from itertools import combinations, combinations_with_replacement

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import identical_agents_doc, random_template_doc
from oracles import (
    counter_of,
    deficits,
    first_witnesses,
    keyed,
    literal_profile,
    mask,
    rotated_counter,
    scaled_efx_counters,
    scaled_pair_groups,
    transfer,
    universe,
    unmask,
)

from efxcheck.cardinal import ApproxFactor, LevelValue, build_coverage, build_subadditive, compare_scaled
from efxcheck.core import ALL_BUNDLES, GOODS
from efxcheck.ordinal import build_profile, bundled_instance_text, parse_template
from efxcheck.verify import (
    Profile,
    compute_deficit_profile,
    is_efx,
    strong_envy_witness,
    verify_cyclic_symmetry,
    verify_no_alpha_efx,
    verify_no_efx,
    verify_transfer,
)

HYPOTHESIS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# Each example below scans all 6561 allocations twice, once per side.
HYPOTHESIS_SCANS = settings(derandomize=True, database=None, deadline=None, max_examples=12)
# Each example below checks transfer twice, once per realization; only a
# realization that breaks strict rank order walks the allocations.
HYPOTHESIS_TRANSFER = settings(derandomize=True, database=None, deadline=None, max_examples=8)

NAMES = ("A", "B", "C", "x", "y", "Z", "m", "q")

SEEDS = range(300)


def _witness_goods(counters: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """The allocations of the counters as witnesses list them."""
    return [tuple(tuple(sorted(bundle)) for bundle in universe()[counter][0]) for counter in counters]


def level(exponent: int | None) -> LevelValue:
    return LevelValue.zero() if exponent is None else LevelValue.power(exponent)


def _assert_matches_literal_recipe(doc: dict) -> None:
    profile = build_profile(parse_template(json.dumps(doc)))
    ranks, images, labels = literal_profile(doc)
    for agent in range(3):
        assert profile.rank_tables[agent] == tuple(ranks[agent][unmask(b)] for b in ALL_BUNDLES), agent
        assert profile.bundle_images[agent] == tuple(mask(images[agent][unmask(b)]) for b in ALL_BUNDLES), agent
    assert profile.support_labels == tuple(labels[unmask(b)] for b in ALL_BUNDLES)


@st.composite
def template_docs(draw) -> dict:
    labels = draw(st.lists(st.integers(0, 4), min_size=8, max_size=8))
    groups: dict[int, list[int]] = {}
    for good, label in enumerate(labels):
        groups.setdefault(label, []).append(good)
    names = draw(st.permutations(NAMES))[: len(groups)]
    types, specials = [], {}
    # Eight goods in at most five groups: some group has two goods, so the
    # types list is never empty.
    for name, goods in zip(names, groups.values()):
        if len(goods) == 1 and draw(st.booleans()):
            specials[name] = goods[0]
        else:
            types.append({"name": name, "goods": goods})
    size = {name: len(goods) for name, goods in zip(names, groups.values())}
    declared = [entry["name"] for entry in types] + list(specials)

    top_rank = draw(st.integers(1, 12))
    pairs = list(combinations(declared, 2)) + [(name, name) for name in declared if size[name] >= 2]
    pair_ranks: dict[str, dict[str, int]] = {}
    for first, second in pairs:
        if draw(st.booleans()):
            first, second = second, first
        pair_ranks.setdefault(first, {})[second] = draw(st.integers(1, top_rank))

    realizable = [
        triple
        for triple in combinations_with_replacement(declared, 3)
        if all(triple.count(name) <= size[name] for name in triple)
    ]
    chosen = draw(st.lists(st.sampled_from(realizable), max_size=4, unique=True))
    exceptional = [list(draw(st.permutations(triple))) for triple in chosen]

    order = draw(st.permutations(GOODS))
    permutation = list(GOODS)
    for cycle in range(draw(st.integers(0, 2))):
        a, b, c = order[3 * cycle : 3 * cycle + 3]
        permutation[a], permutation[b], permutation[c] = b, c, a

    return {
        "types": types,
        "special_goods": specials,
        "pair_ranks": pair_ranks,
        "exceptional": exceptional,
        "top_rank": top_rank,
        "permutation": permutation,
    }


# A type of three goods and a type of four, exceptional triples with a
# repeated type, and a relabeling that moves goods between types.
WIDE_DOC = {
    "types": [{"name": "B", "goods": [0, 1, 2, 3]}, {"name": "A", "goods": [4, 5, 6]}],
    "special_goods": {"z": 7},
    "pair_ranks": {"A": {"A": 2, "B": 3, "z": 1}, "B": {"B": 1, "z": 4}},
    "exceptional": [["A", "B", "A"], ["B", "B", "z"], ["A", "A", "A"]],
    "top_rank": 5,
    "permutation": [4, 1, 0, 3, 2, 5, 6, 7],
}


def test_shipped_and_identical_templates_match_literal_recipe():
    _assert_matches_literal_recipe(json.loads(bundled_instance_text()))
    _assert_matches_literal_recipe(json.loads(identical_agents_doc()))


def test_seeded_templates_match_literal_recipe():
    for seed in SEEDS:
        _assert_matches_literal_recipe(json.loads(random_template_doc(seed)))


@HYPOTHESIS
@given(template_docs())
@example(WIDE_DOC)
def test_generated_templates_match_literal_recipe(doc):
    _assert_matches_literal_recipe(doc)


def _efx_count_with_identical_agents(doc: dict) -> int:
    doc = dict(doc, permutation=list(GOODS))
    profile = build_profile(parse_template(json.dumps(doc)))
    report = verify_no_efx(Profile(kind="ordinal", ordinal=profile), witness_limit=0)
    return dict(report.breakdown)["efx_allocations"]


# With the identity relabeling all three agents share one monotone
# valuation, and an EFX allocation then exists (Plaut and Roughgarden,
# "Almost Envy-Freeness with General Valuations", SODA 2018).


def test_identical_agents_have_an_efx_allocation_on_seeded_templates():
    for seed in SEEDS:
        assert _efx_count_with_identical_agents(json.loads(random_template_doc(seed))) >= 1, seed


@HYPOTHESIS
@given(template_docs())
@example(WIDE_DOC)
def test_identical_agents_have_an_efx_allocation_on_generated_templates(doc):
    assert _efx_count_with_identical_agents(doc) >= 1


@HYPOTHESIS_SCANS
@given(template_docs())
@example(WIDE_DOC)
def test_generated_templates_efx_reads_match_set_based_reference(doc):
    ranks, _, _ = literal_profile(doc)
    gaps, witnesses = deficits(ranks), first_witnesses(ranks)
    ordinal = build_profile(parse_template(json.dumps(doc)))
    profile = Profile(kind="ordinal", ordinal=ordinal)

    efx = [counter for counter, witness in enumerate(witnesses) if witness is None]
    report = verify_no_efx(profile, witness_limit=10)
    assert dict(report.breakdown)["efx_allocations"] == len(efx)
    assert [w.allocation for w in report.witnesses] == _witness_goods(efx[:10])

    deficit = compute_deficit_profile(profile)
    assert deficit.d_star == min(gaps)
    assert dict(deficit.histogram) == {d: gaps.count(d) for d in set(gaps)}
    assert deficit.min_deficit_all_nonempty == min(
        gap for (bundles, _), gap in zip(universe(), gaps) if all(bundles)
    )

    for (bundles, _), gap, witness in zip(universe(), gaps, witnesses):
        allocation = tuple(map(mask, bundles))
        assert is_efx(allocation, ordinal) == (gap == 0) == (witness is None)
        assert strong_envy_witness(allocation, ordinal) == witness

    # One relabeling step takes (X0, X1, X2) to (perm(X1), perm(X2),
    # perm(X0)).
    mismatches = [
        counter
        for counter, (bundles, _) in enumerate(universe())
        if (witnesses[counter] is None) != (witnesses[rotated_counter(bundles, doc["permutation"])] is None)
    ]
    cyclic = verify_cyclic_symmetry(profile, witness_limit=10)
    assert cyclic.passed == (not mismatches)
    assert dict(cyclic.breakdown)["efx_allocations"] == len(efx)
    assert [w.allocation for w in cyclic.witnesses] == _witness_goods(mismatches[:10])
    # Agent i + 1 ranks every bundle B as agent i ranks perm(B), agents
    # taken mod 3 because the relabeling's order divides 3, so rotation
    # keeps every status.
    assert cyclic.passed

    # Level keys are a strictly increasing function of rank, so the level
    # realization has the same EFX allocations as the ranks.
    levels = Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal))
    level_report = verify_no_efx(levels, witness_limit=10)
    assert (level_report.witnesses, level_report.breakdown) == (report.witnesses, report.breakdown)

    # With top_rank <= 7 every nonempty level value lies in [1/2, 1], so
    # the level realization is subadditive, and a 1/2-scaled EFX
    # allocation exists (Plaut and Roughgarden, SODA 2018).
    if doc["top_rank"] <= 7:
        assert not verify_no_alpha_efx(levels, ApproxFactor.parse("1/2"), witness_limit=0).passed

    # The scaled scan at every slack against the exponent pairs of the
    # literal ranks (top_rank - rank, None for the empty bundle), each
    # decided by compare_scaled.
    top = doc["top_rank"]
    groups = scaled_pair_groups([{b: top - rank if b else None for b, rank in table.items()} for table in ranks])
    for slack in range(top + 1):
        alpha = ApproxFactor.parse(f"lambda^{slack}")
        holds = scaled_efx_counters(groups, lambda own, reduced: compare_scaled(level(own), alpha, level(reduced)))
        report = verify_no_alpha_efx(levels, alpha, witness_limit=10)
        assert dict(report.breakdown)["alpha_efx_allocations"] == len(holds), slack
        assert [w.allocation for w in report.witnesses] == _witness_goods(holds[:10]), slack


@HYPOTHESIS_TRANSFER
@given(template_docs())
@example(WIDE_DOC)
def test_generated_templates_transfer_matches_reference(doc):
    ordinal = build_profile(parse_template(json.dumps(doc)))
    ranks, _, _ = literal_profile(doc)
    realizations = (
        Profile(kind="subadditive", ordinal=ordinal, subadditive=build_subadditive(ordinal)),
        Profile(kind="coverage", ordinal=ordinal, coverage=build_coverage(ordinal)),
    )
    passed = {}
    for profile in realizations:
        triples, violations = transfer(ranks, keyed((profile.subadditive or profile.coverage).value))
        report = verify_transfer(Profile(kind="ordinal", ordinal=ordinal), profile, witness_limit=10)
        assert report.checked == dict(report.breakdown)["ordinal_witness_triples"] == triples
        assert report.passed == (not violations)
        assert [(counter_of(w.allocation), w.agent_i, w.agent_j, w.good_g) for w in report.witnesses] == violations[:10]
        passed[profile.kind] = report.passed
    # A level value is a strictly increasing function of rank (zero for
    # the empty bundle, which alone ranks 0), so the subadditive
    # realization keeps every strict rank comparison.
    assert passed["subadditive"]
