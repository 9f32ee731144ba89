"""Goods, bundles, permutations, allocations, the enumerator, and the Record base."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from oracles import RELABELING, SIGMA, TYPE_BY_GOOD

from efxcheck.cardinal import ApproxFactor, CoverageAtom, LevelValue
from efxcheck.core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    GOODS,
    N_ALLOCATIONS,
    Record,
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
from efxcheck.ordinal import builtin_profile, rotate_allocation, support_of, type_of
from efxcheck.verify import Profile, builtin, profile_value_keys


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


def test_decode_matches_the_literal_decode():
    # The one place core's decode meets the oracle's counter // 3**g % 3.
    literal = [tuple(map(oracles.mask, bundles)) for bundles, _ in oracles.universe()]
    assert [allocation_from_counter(counter) for counter in range(N_ALLOCATIONS)] == literal
    assert list(enumerate_allocations()) == literal
    for counter in (-1, N_ALLOCATIONS):
        with pytest.raises(ValueError):
            allocation_from_counter(counter)


def test_literal_counter_needs_a_partition():
    # Witness checks compare oracles.counter_of, so it must reject bundles
    # that leave a good out, hold one twice, or are not one per agent.
    assert oracles.counter_of(((0, 3, 6), (1, 4, 7), (2, 5))) == 3 + 81 + 2187 + 2 * (9 + 243)
    for bundles in (
        ((), (), ()),
        ((0, 1, 2, 3), (4, 5, 6), ()),
        ((0, 1, 2, 3), (3, 4, 5, 6), (7,)),
        ((0, 1, 2, 3), (4, 5, 6), (7,), ()),
        ((0, 1, 2, 3), (4, 5, 6, 7)),
        ((0, 1, 2, 3), (4, 5, 6), (8,)),
    ):
        with pytest.raises(ValueError):
            oracles.counter_of(bundles)


def test_oracles_import_nothing_from_efxcheck():
    # src is on the path, so an efxcheck import from oracles would succeed
    # and show up in sys.modules.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]))
    probe = "import sys, oracles; print(sorted(m for m in sys.modules if m.split('.')[0] == 'efxcheck'))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


class _Pair(Record):
    first: int
    second: int = 0


class _OtherPair(Record):
    first: int
    second: int = 0


def test_record_fields_come_from_annotations_and_class_defaults():
    assert _Pair._fields == ("first", "second")
    assert _Pair(1) == _Pair(first=1, second=0) == _Pair(1, 0)
    assert _Pair(1, 2).second == 2
    assert repr(_Pair(1, 2)) == "_Pair(first=1, second=2)"
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})):
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)


def test_record_equality_needs_the_same_class_and_fields():
    assert _Pair(1, 2) == _Pair(1, 2) and hash(_Pair(1, 2)) == hash(_Pair(1, 2))
    assert _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert _Pair(1, 2) != (1, 2) and (1, 2) != _Pair(1, 2)
    assert CoverageAtom(3, 1) != _Pair(3, 1)
    assert len({_Pair(1, 2), _Pair(1, 2), _OtherPair(1, 2)}) == 2


def test_record_keeps_level_value_order():
    # Equality and order are LevelValue's own, not a tuple's.
    assert LevelValue.zero() < LevelValue.power(7) < LevelValue.power(0)
    assert LevelValue.power(3) <= LevelValue.power(3) and not LevelValue.power(3) < LevelValue.power(3)
    assert LevelValue.power(3) != (3,)


def test_records_are_frozen():
    atom = CoverageAtom(3, 1)
    with pytest.raises(AttributeError):
        atom.weight = 2
    with pytest.raises(AttributeError):
        del atom.weight
    with pytest.raises(AttributeError):
        builtin("ordinal").kind = "coverage"
    assert atom == CoverageAtom(3, 1)


def test_record_replace_copies_and_validates_again():
    atom = CoverageAtom(3, 1)
    assert atom.replace(weight=2) == CoverageAtom(3, 2)
    assert atom == CoverageAtom(3, 1)
    ordinal = builtin("ordinal")
    assert ordinal.replace(kind="ordinal") == ordinal
    with pytest.raises(ValueError, match="subadditive profile payload missing"):
        ordinal.replace(kind="subadditive")
    with pytest.raises(ValueError, match=r"factor must lie in \(0, 1\]"):
        ApproxFactor.parse("9/10").replace(rational=Fraction(2))
    with pytest.raises(TypeError):
        atom.replace(colour=1)


def test_invalid_profile_and_factor_still_raise():
    with pytest.raises(ValueError, match="unknown profile kind"):
        Profile(kind="cardinal", ordinal=builtin_profile())
    with pytest.raises(ValueError, match="coverage profile payload missing"):
        Profile(kind="coverage", ordinal=builtin_profile())
    with pytest.raises(ValueError, match="exactly one of"):
        ApproxFactor()
    with pytest.raises(ValueError, match="exactly one of"):
        ApproxFactor(rational=Fraction(1, 2), level_exponent=Fraction(0))
    with pytest.raises(ValueError, match="non-negative"):
        ApproxFactor.from_level_exponent(-1)


def test_equal_profiles_share_an_lru_cache_entry():
    keys = lru_cache(maxsize=None)(profile_value_keys)
    first = keys(builtin("ordinal"))
    assert keys(Profile(kind="ordinal", ordinal=builtin_profile())) is first
    assert keys.cache_info().hits == 1
    assert keys(builtin("subadditive")) is not first
    assert keys.cache_info().misses == 2
