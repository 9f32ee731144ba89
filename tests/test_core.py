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
    bundle_columns,
    bundle_of,
    code_sizes,
    members,
    nonempty_mask,
    permutation_power,
    rotation_column,
    size_codes,
)
from efxcheck.ordinal import builtin_profile, builtin_template
from efxcheck.verify import Profile, builtin, profile_value_keys


def _sizes(allocation):
    return tuple(bundle.bit_count() for bundle in allocation)


def _types(bundle) -> set[str]:
    """The types in a bundle, read from its support label: the built-in
    type names are single characters, and "∅" labels no type."""
    label = builtin_profile().support_labels[bundle]
    return set() if label == "∅" else set(label)


def _rotation() -> tuple[int, ...]:
    """The built-in relabeling's rotation column."""
    return tuple(rotation_column(builtin_profile().bundle_images[1]))


def test_type_partition():
    type_of_good = builtin_template().type_of_good()
    assert (type_of_good[0], type_of_good[6], type_of_good[7]) == ("A", "x", "y")
    groups = {}
    for g in GOODS:
        groups.setdefault(type_of_good[g], set()).add(g)
    assert groups == {"A": {0, 3}, "B": {1, 4}, "C": {2, 5}, "x": {6}, "y": {7}}


def test_support_label_examples():
    labels = builtin_profile().support_labels
    assert labels[bundle_of((0, 3, 1, 4))] == "AB"
    assert labels[0] == "∅"
    assert labels[bundle_of((0, 2, 6))] == "ACx"


def test_builtin_template_reads_match_oracle_data():
    assert builtin_template().type_of_good() == tuple(TYPE_BY_GOOD[g] for g in GOODS)
    for bundle in ALL_BUNDLES:
        assert _types(bundle) == {TYPE_BY_GOOD[g] for g in members(bundle)}
    for agent, images in enumerate(builtin_profile().bundle_images):
        for bundle in ALL_BUNDLES:
            image = oracles.unmask(bundle)
            for _ in range(agent):
                image = {SIGMA[g] for g in image}
            assert images[bundle] == oracles.mask(image)


def test_support_union_homomorphism():
    for s in ALL_BUNDLES:
        for t in (0, 1, 0b10101010, FULL_BUNDLE, s >> 1):
            assert _types(s | t) == _types(s) | _types(t)


def test_relabeling_examples():
    once = builtin_profile().bundle_images[1]
    assert once[bundle_of((2, 5))] == bundle_of((0, 3))
    assert once[0] == 0
    cube = permutation_power(RELABELING, 3)
    assert cube == tuple(GOODS)
    for bundle in ALL_BUNDLES:
        assert once[bundle].bit_count() == bundle.bit_count()
        assert once[once[once[bundle]]] == bundle


def test_rotation_sizes_and_identity():
    rotation = _rotation()
    counter = oracles.counter_of(((0, 1), (2, 3), (4, 5, 6, 7)))
    assert _sizes(allocation_from_counter(counter)) == (2, 2, 4)
    assert _sizes(allocation_from_counter(rotation[counter])) == (2, 4, 2)
    assert rotation[rotation[rotation[counter]]] == counter


def test_rotate_empty_full():
    assert _rotation()[oracles.counter_of(((), GOODS, ()))] == oracles.counter_of((GOODS, (), ()))


def test_rotate_is_bijection():
    assert sorted(_rotation()) == list(range(N_ALLOCATIONS))


def test_enumeration_count_and_validity():
    allocations = list(zip(*bundle_columns()))
    assert len(allocations) == N_ALLOCATIONS == 6561
    for counter, allocation in enumerate(allocations):
        # counter_of refuses bundles that do not partition the goods.
        assert oracles.counter_of(tuple(map(oracles.unmask, allocation))) == counter


def test_enumeration_counter_zero_gives_everything_to_agent_zero():
    assert allocation_from_counter(0) == (FULL_BUNDLE, 0, 0)


def test_enumeration_pattern_count_matches_multinomial():
    observed = sum(1 for a in zip(*bundle_columns()) if _sizes(a) == (2, 3, 3))
    expected = math.factorial(8) // (math.factorial(2) * math.factorial(3) * math.factorial(3))
    assert observed == expected == 560


def test_counter_roundtrip():
    for counter in range(N_ALLOCATIONS):
        bundles = tuple(map(oracles.unmask, allocation_from_counter(counter)))
        assert oracles.counter_of(bundles) == counter


def test_decode_matches_the_literal_decode():
    # Core's decode, and the universe columns derived from it, against
    # the oracle's literal decode, counter // 3**g % 3.
    allocations = [bundles for bundles, _ in oracles.universe()]
    literal = [tuple(map(oracles.mask, allocation)) for allocation in allocations]
    assert [allocation_from_counter(counter) for counter in range(N_ALLOCATIONS)] == literal
    assert bundle_columns() == tuple(map(bytes, zip(*literal)))
    for counter in (-1, N_ALLOCATIONS):
        with pytest.raises(ValueError):
            allocation_from_counter(counter)

    sizes = [tuple(map(len, allocation)) for allocation in allocations]
    assert list(size_codes()) == [9 * first + second for first, second, _ in sizes]
    assert list(map(code_sizes, size_codes())) == sizes
    assert list(nonempty_mask()) == [int(all(allocation)) for allocation in allocations]

    # The built-in relabeling as the profiles carry it, its inverse, and a
    # 3-cycle that moves goods of different types.
    relabelings = [(RELABELING, builtin_profile().bundle_images[1])]
    for permutation in ((2, 0, 1, 5, 3, 4, 6, 7), (6, 1, 2, 0, 4, 5, 3, 7)):
        images = tuple(oracles.mask(permutation[g] for g in oracles.unmask(b)) for b in ALL_BUNDLES)
        relabelings.append((permutation, images))
    for permutation, images in relabelings:
        expected = [oracles.rotated_counter(allocation, permutation) for allocation in allocations]
        assert list(rotation_column(images)) == expected, permutation


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


def test_members_iteration_deterministic():
    for bundle in ALL_BUNDLES:
        listed = members(bundle)
        assert listed == tuple(sorted(listed))
        assert bundle_of(listed) == bundle


def test_all_pairs_disjoint_cover():
    for allocation in zip(*bundle_columns()):
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
