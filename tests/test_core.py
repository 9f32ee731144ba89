"""Goods, bundles, permutations, allocations, and the enumerator."""

import math
from itertools import combinations

import pytest

from oracles import RELABELING, SIGMA, TYPE_BY_GOOD

from efxcheck.core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    GOODS,
    N_ALLOCATIONS,
    allocation_from_counter,
    apply_permutation,
    bundle_of,
    counter_of_allocation,
    enumerate_allocations,
    invert_permutation,
    is_allocation,
    members,
    permutation_power,
)
from efxcheck.ordinal import rotate_allocation, support_of, type_of


def _sizes(allocation):
    return tuple(bundle.bit_count() for bundle in allocation)


def test_type_partition():
    assert type_of(0) == "A"
    assert type_of(6) == "x"
    assert type_of(7) == "y"
    groups = {}
    for g in GOODS:
        groups.setdefault(type_of(g), set()).add(g)
    assert groups == {"A": {0, 3}, "B": {1, 4}, "C": {2, 5}, "x": {6}, "y": {7}}


def test_support_of_examples():
    assert support_of(bundle_of((0, 3, 1, 4))) == {"A", "B"}
    assert support_of(0) == frozenset()
    assert support_of(bundle_of((0, 2, 6))) == {"A", "C", "x"}


def test_builtin_template_reads_match_oracle_data():
    import efxcheck

    assert tuple(efxcheck.type_of(g) for g in GOODS) == tuple(TYPE_BY_GOOD[g] for g in GOODS)
    for bundle in ALL_BUNDLES:
        assert efxcheck.support_of(bundle) == {TYPE_BY_GOOD[g] for g in members(bundle)}

    def relabel(bundle):
        return bundle_of(SIGMA[g] for g in members(bundle))

    for x0, x1, x2 in enumerate_allocations():
        assert efxcheck.rotate_allocation((x0, x1, x2)) == (relabel(x1), relabel(x2), relabel(x0))


def test_support_union_homomorphism():
    for s in ALL_BUNDLES:
        for t in (0, 1, 0b10101010, FULL_BUNDLE, s >> 1):
            assert support_of(s | t) == support_of(s) | support_of(t)


def test_relabeling_examples():
    assert apply_permutation(RELABELING, bundle_of((2, 5))) == bundle_of((0, 3))
    assert apply_permutation(RELABELING, 0) == 0
    cube = permutation_power(RELABELING, 3)
    assert cube == tuple(GOODS)
    for bundle in ALL_BUNDLES:
        once = apply_permutation(RELABELING, bundle)
        assert once.bit_count() == bundle.bit_count()
        thrice = apply_permutation(RELABELING, apply_permutation(RELABELING, once))
        assert thrice == bundle


def test_permutation_invertible():
    inverse = invert_permutation(RELABELING)
    for bundle in ALL_BUNDLES:
        assert apply_permutation(inverse, apply_permutation(RELABELING, bundle)) == bundle


def test_rotate_allocation_sizes_and_identity():
    allocation = (bundle_of((0, 1)), bundle_of((2, 3)), bundle_of((4, 5, 6, 7)))
    assert _sizes(allocation) == (2, 2, 4)
    assert _sizes(rotate_allocation(allocation)) == (2, 4, 2)
    rotated = rotate_allocation(rotate_allocation(rotate_allocation(allocation)))
    assert rotated == allocation


def test_rotate_empty_full():
    assert rotate_allocation((0, FULL_BUNDLE, 0)) == (FULL_BUNDLE, 0, 0)


def test_rotate_is_bijection():
    seen = set()
    for allocation in enumerate_allocations():
        image = rotate_allocation(allocation)
        assert is_allocation(image)
        seen.add(image)
    assert len(seen) == N_ALLOCATIONS


def test_enumeration_count_and_validity():
    count = 0
    seen = set()
    for allocation in enumerate_allocations():
        assert is_allocation(allocation)
        assert sum(_sizes(allocation)) == 8
        seen.add(allocation)
        count += 1
    assert count == N_ALLOCATIONS == 6561
    assert len(seen) == count


def test_enumeration_counter_zero_gives_everything_to_agent_zero():
    assert allocation_from_counter(0) == (FULL_BUNDLE, 0, 0)


def test_enumeration_pattern_count_matches_multinomial():
    observed = sum(1 for a in enumerate_allocations() if _sizes(a) == (2, 3, 3))
    expected = math.factorial(8) // (math.factorial(2) * math.factorial(3) * math.factorial(3))
    assert observed == expected == 560


def test_counter_roundtrip():
    for counter in range(N_ALLOCATIONS):
        assert counter_of_allocation(allocation_from_counter(counter)) == counter


def test_bundle_helpers():
    bundle = bundle_of((7, 0, 3))
    assert members(bundle) == (0, 3, 7)
    assert bundle.bit_count() == 3
    with pytest.raises(ValueError):
        bundle_of((8,))
    with pytest.raises(ValueError):
        counter_of_allocation((1, 1, FULL_BUNDLE))


def test_members_iteration_deterministic():
    for bundle in ALL_BUNDLES:
        listed = members(bundle)
        assert listed == tuple(sorted(listed))
        assert bundle_of(listed) == bundle


def test_all_pairs_disjoint_cover():
    for allocation in enumerate_allocations():
        x0, x1, x2 = allocation
        for a, b in combinations((x0, x1, x2), 2):
            assert a & b == 0
        assert x0 | x1 | x2 == FULL_BUNDLE
