"""Rank construction, preference predicates, and their stated invariants."""

from itertools import combinations

from oracles import (
    RELABELING,
    TYPE_BY_GOOD,
    agent_feasible,
    counter_of,
    envious,
    first_witness,
    keyed,
    mask,
    naive_is_exceptional,
    naive_rank,
    naive_rank_for_agent,
    rotated_counter,
    triples_of,
    universe,
    unmask,
)

from efxcheck.core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    GOODS,
    N_AGENTS,
    allocation_from_counter,
    bundle_columns,
    bundle_of,
    members,
)
from efxcheck.ordinal import builtin_profile
from efxcheck.verify import _status_column, is_efx, strong_envy_witness
from efxcheck.tables import EXPECTED_PAIR_RANKS


def _ranks(agent: int = 0) -> tuple[int, ...]:
    return builtin_profile().rank_tables[agent]


def _top_rank_triples() -> list[int]:
    return [b for b in ALL_BUNDLES if b.bit_count() == 3 and _ranks()[b] == builtin_profile().top_rank]


def test_pair_rank_cells():
    ranks = _ranks()
    assert ranks[bundle_of((0, 6))] == 4  # A x
    assert ranks[bundle_of((1, 2))] == 5  # B C
    assert ranks[bundle_of((0, 3))] == 1  # A A
    assert ranks[bundle_of((6, 3))] == 4  # x A, in either order
    # Only one good has type x and one type y: no pair is (x, x) or (y, y).
    pair_map = builtin_profile().template.pair_rank_map()
    assert ("x", "x") not in pair_map and ("y", "y") not in pair_map


def test_top_rank_triple_examples():
    top = _top_rank_triples()
    assert bundle_of((1, 2, 6)) in top
    assert bundle_of((0, 1, 2)) in top
    assert bundle_of((0, 1, 7)) not in top


def test_top_rank_triples_match_oracle_everywhere():
    top = set(_top_rank_triples())
    for bundle in ALL_BUNDLES:
        assert (bundle in top) == naive_is_exceptional(frozenset(members(bundle)))


def test_exactly_twelve_exceptional_triples():
    words = sorted("".join(map(str, members(b))) for b in _top_rank_triples())
    assert words == [
        "012", "015", "024", "045", "123", "126",
        "135", "156", "234", "246", "345", "456",
    ]


def test_rank0_examples():
    ranks = _ranks()
    assert ranks[bundle_of((6, 7))] == 1
    assert ranks[bundle_of((0, 3, 1, 4))] == 2
    assert ranks[bundle_of((1, 4, 2, 5, 6))] == 7


def test_rank0_big_bundle_matches_triple_max_oracle():
    bundle = bundle_of((1, 4, 2, 5, 6))
    best = max(naive_rank(frozenset(t)) for t in combinations(members(bundle), 3))
    assert _ranks()[bundle] == best == 7


def test_rank0_matches_naive_oracle_everywhere():
    ranks = _ranks()
    for bundle in ALL_BUNDLES:
        assert ranks[bundle] == naive_rank(frozenset(members(bundle)))


def test_rank_for_agent_examples():
    assert _ranks(1)[bundle_of((0, 1))] == 5
    assert _ranks(2)[bundle_of((1, 6))] == 4


def test_rank_for_agent_matches_naive_oracle_everywhere():
    for agent in range(N_AGENTS):
        ranks = _ranks(agent)
        for bundle in ALL_BUNDLES:
            assert ranks[bundle] == naive_rank_for_agent(agent, frozenset(members(bundle)))


def test_rank_range_and_small_cases():
    for bundle in ALL_BUNDLES:
        r = _ranks()[bundle]
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
    profile = builtin_profile()
    by_support = {}
    for bundle in ALL_BUNDLES:
        types = {TYPE_BY_GOOD[g] for g in members(bundle)}
        label = "".join(name for name in "ABCxy" if name in types) or "∅"
        assert profile.support_labels[bundle] == label
        by_support.setdefault(label, set()).add(profile.rank_tables[0][bundle])
    assert len(by_support) == 32
    assert all(len(values) == 1 for values in by_support.values())


def test_shift_identity():
    profile = builtin_profile()
    for agent in range(N_AGENTS):
        successor = (agent + 1) % N_AGENTS
        for bundle in ALL_BUNDLES:
            image = mask(RELABELING[g] for g in unmask(bundle))
            assert profile.rank_tables[successor][bundle] == profile.rank_tables[agent][image]


def test_top_rank_characterization():
    exceptional = [b for b in ALL_BUNDLES if naive_is_exceptional(unmask(b))]
    for bundle in ALL_BUNDLES:
        contains = any(triple & bundle == triple for triple in exceptional)
        assert (_ranks()[bundle] == 7) == contains


def test_agent_pair_tables_match_expected_cells():
    for agent in range(N_AGENTS):
        expected = EXPECTED_PAIR_RANKS[agent]
        for g1, g2 in combinations(GOODS, 2):
            key = tuple(sorted((TYPE_BY_GOOD[g1], TYPE_BY_GOOD[g2])))
            assert _ranks(agent)[bundle_of((g1, g2))] == expected[key]


def _agent0_feasible(bundles) -> bool:
    """Whether agent 0 envies no other bundle up to one good, read from
    the status column (status 0 is exactly agent 0 envying)."""
    return _status_column(builtin_profile().rank_tables)[counter_of(bundles)] != 0


def test_status_column_agent0_matches_oracle():
    assert _agent0_feasible((GOODS, (), ()))
    rest = [g for g in GOODS if g not in (6, 7)]
    assert not _agent0_feasible(((), (6, 7), rest))
    feasible = agent_feasible(keyed(builtin_profile().rank_tables), 0)
    assert [status != 0 for status in _status_column(builtin_profile().rank_tables)] == feasible


def test_first_pair_xy_never_feasible_for_agent_zero():
    first = (6, 7)
    others = [g for g in GOODS if g not in first]
    for second in combinations(others, 3):
        third = [g for g in others if g not in second]
        assert not _agent0_feasible((first, second, third))


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
    assert _ranks(i)[reduced] == 2
    assert _ranks(i)[allocation[i]] == 1


def test_strong_envy_witness_is_lexicographically_first():
    profile = builtin_profile()
    allocation = (bundle_of((1, 7)), bundle_of((4, 6)), bundle_of((0, 2, 3, 5)))
    first = first_witness(keyed(profile.rank_tables), triples_of(tuple(map(unmask, allocation))))
    assert first is not None
    assert first == strong_envy_witness(allocation, profile)


def test_empty_bundle_agent_always_strongly_envies():
    profile = builtin_profile()
    ranks = keyed(profile.rank_tables)
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
    for allocation in zip(*bundle_columns()):
        witness = strong_envy_witness(allocation, profile)
        assert (witness is None) == is_efx(allocation, profile)


def test_efx_invariant_under_rotation():
    profile = builtin_profile()
    for allocation, (bundles, _) in zip(zip(*bundle_columns()), universe()):
        image = allocation_from_counter(rotated_counter(bundles, RELABELING))
        assert is_efx(allocation, profile) == is_efx(image, profile)
