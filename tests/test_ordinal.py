"""Rank construction, preference predicates, and their stated invariants."""

from itertools import combinations

import pytest

from oracles import (
    RELABELING,
    envious,
    first_witness,
    keyed,
    mask,
    naive_is_exceptional,
    naive_rank,
    naive_rank_for_agent,
    triples_of,
    universe,
    unmask,
)

from efxcheck.core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    GOODS,
    N_AGENTS,
    apply_permutation,
    bundle_of,
    enumerate_allocations,
    members,
)
from efxcheck.ordinal import (
    UndefinedPairRank,
    base_pair_rank,
    builtin_profile,
    is_exceptional,
    rank0,
    rank_for_agent,
    rotate_allocation,
    support_of,
    type_of,
)
from efxcheck.verify import efx_feasible, is_efx, strong_envy_witness
from efxcheck.tables import EXPECTED_PAIR_RANKS


def test_base_pair_rank_cells():
    assert base_pair_rank("A", "x") == 4
    assert base_pair_rank("B", "C") == 5
    assert base_pair_rank("A", "A") == 1
    assert base_pair_rank("x", "A") == 4  # symmetric lookup
    with pytest.raises(UndefinedPairRank):
        base_pair_rank("x", "x")
    with pytest.raises(UndefinedPairRank):
        base_pair_rank("y", "y")


def test_is_exceptional_examples():
    assert is_exceptional(bundle_of((1, 2, 6)))
    assert is_exceptional(bundle_of((0, 1, 2)))
    assert not is_exceptional(bundle_of((0, 1, 7)))
    assert not is_exceptional(bundle_of((0, 1)))


def test_is_exceptional_matches_oracle_everywhere():
    for bundle in ALL_BUNDLES:
        assert is_exceptional(bundle) == naive_is_exceptional(frozenset(members(bundle)))


def test_exactly_twelve_exceptional_triples():
    words = sorted(
        "".join(map(str, members(b))) for b in ALL_BUNDLES if is_exceptional(b)
    )
    assert words == [
        "012", "015", "024", "045", "123", "126",
        "135", "156", "234", "246", "345", "456",
    ]


def test_rank0_examples():
    assert rank0(bundle_of((6, 7))) == 1
    assert rank0(bundle_of((0, 3, 1, 4))) == 2
    assert rank0(bundle_of((1, 4, 2, 5, 6))) == 7


def test_rank0_big_bundle_matches_triple_max_oracle():
    bundle = bundle_of((1, 4, 2, 5, 6))
    best = max(naive_rank(frozenset(t)) for t in combinations(members(bundle), 3))
    assert rank0(bundle) == best == 7


def test_rank0_matches_naive_oracle_everywhere():
    for bundle in ALL_BUNDLES:
        assert rank0(bundle) == naive_rank(frozenset(members(bundle)))


def test_rank_for_agent_examples():
    assert rank_for_agent(1, bundle_of((0, 1))) == 5
    assert rank_for_agent(2, bundle_of((1, 6))) == 4
    for bundle in ALL_BUNDLES:
        assert rank_for_agent(0, bundle) == rank0(bundle)


def test_rank_for_agent_matches_naive_oracle_everywhere():
    for agent in range(N_AGENTS):
        for bundle in ALL_BUNDLES:
            assert rank_for_agent(agent, bundle) == naive_rank_for_agent(
                agent, frozenset(members(bundle))
            )


def test_rank_range_and_small_cases():
    for bundle in ALL_BUNDLES:
        r = rank0(bundle)
        assert 0 <= r <= 7
        if bundle == 0:
            assert r == 0
        elif bundle.bit_count() == 1:
            assert r == 1
        else:
            assert r >= 1


def test_monotone_everywhere_all_agents():
    profile = builtin_profile()
    for table in profile.rank_tables:
        for bundle in ALL_BUNDLES:
            for g in GOODS:
                assert table[bundle | (1 << g)] >= table[bundle]


def test_rank_depends_only_on_support():
    by_support = {}
    for bundle in ALL_BUNDLES:
        key = support_of(bundle)
        by_support.setdefault(key, set()).add(rank0(bundle))
    assert len(by_support) == 32
    assert all(len(values) == 1 for values in by_support.values())


def test_shift_identity():
    profile = builtin_profile()
    for agent in range(N_AGENTS):
        successor = (agent + 1) % N_AGENTS
        for bundle in ALL_BUNDLES:
            image = apply_permutation(RELABELING, bundle)
            assert profile.rank_tables[successor][bundle] == profile.rank_tables[agent][image]


def test_top_rank_characterization():
    exceptional = [b for b in ALL_BUNDLES if is_exceptional(b)]
    for bundle in ALL_BUNDLES:
        contains = any(mask & bundle == mask for mask in exceptional)
        assert (rank0(bundle) == 7) == contains


def test_agent_pair_tables_match_expected_cells():
    for agent in range(N_AGENTS):
        expected = EXPECTED_PAIR_RANKS[agent]
        for g1, g2 in combinations(GOODS, 2):
            key = tuple(sorted((type_of(g1), type_of(g2))))
            assert rank_for_agent(agent, bundle_of((g1, g2))) == expected[key]


def test_efx_feasible_examples():
    profile = builtin_profile()
    assert efx_feasible(0, (FULL_BUNDLE, 0, 0), profile)
    rest = FULL_BUNDLE ^ bundle_of((6, 7))
    assert not efx_feasible(0, (0, bundle_of((6, 7)), rest), profile)


def test_first_pair_xy_never_feasible_for_agent_zero():
    profile = builtin_profile()
    first = bundle_of((6, 7))
    others = [g for g in GOODS if g not in (6, 7)]
    for second in combinations(others, 3):
        second_mask = bundle_of(second)
        third_mask = FULL_BUNDLE ^ first ^ second_mask
        assert not efx_feasible(0, (first, second_mask, third_mask), profile)


def test_strong_envy_witness_examples():
    profile = builtin_profile()
    witness = strong_envy_witness((FULL_BUNDLE, 0, 0), profile)
    assert witness is not None and witness[0] in (1, 2)

    # Pair for agent 0, a pair and a four-good bundle for the others: the
    # holder of the pair strongly envies the large bundle minus one good.
    allocation = (bundle_of((1, 7)), bundle_of((4, 6)), bundle_of((0, 2, 3, 5)))
    witness = strong_envy_witness(allocation, profile)
    assert witness == (1, 2, 0)
    i, j, g = witness
    reduced = allocation[j] ^ (1 << g)
    assert rank_for_agent(i, reduced) == 2
    assert rank_for_agent(i, allocation[i]) == 1


def test_strong_envy_witness_is_lexicographically_first():
    profile = builtin_profile()
    allocation = (bundle_of((1, 7)), bundle_of((4, 6)), bundle_of((0, 2, 3, 5)))
    first = first_witness(keyed(rank_for_agent), triples_of(tuple(map(unmask, allocation))))
    assert first is not None
    assert first == strong_envy_witness(allocation, profile)


def test_empty_bundle_agent_always_strongly_envies():
    profile = builtin_profile()
    ranks = keyed(rank_for_agent)
    for counter, (bundles, triples) in enumerate(universe()):
        if counter % 7:  # thin the scan; the full EFX theorems cover the rest
            continue
        empties = [i for i in range(N_AGENTS) if not bundles[i]]
        if not empties or all(len(b) < 2 for b in bundles):
            continue
        witness = strong_envy_witness(tuple(map(mask, bundles)), profile)
        assert witness is not None
        if witness[0] not in empties:
            # the lexicographically first witness may belong to another
            # agent; the empty-bundle agent must still have one
            i = empties[0]
            assert any(t[0] == i for t in envious(ranks, triples))


def test_witness_none_iff_efx():
    profile = builtin_profile()
    for allocation in enumerate_allocations():
        witness = strong_envy_witness(allocation, profile)
        assert (witness is None) == is_efx(allocation, profile)


def test_efx_invariant_under_rotation():
    profile = builtin_profile()
    for allocation in enumerate_allocations():
        assert is_efx(allocation, profile) == is_efx(rotate_allocation(allocation), profile)
