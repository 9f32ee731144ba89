"""Level values, exact comparisons, and the coverage valuation."""

from fractions import Fraction
from itertools import product

import pytest

from oracles import LEVEL_BASE, RELABELING, float_level_sum, naive_coverage, naive_coverage_for_agent

from efxcheck import cardinal
from efxcheck.cardinal import (
    ApproxFactor,
    AlgebraicValue,
    BASE_COVERAGE_ATOMS,
    LevelValue,
    SupportCollapseError,
    build_coverage,
    build_subadditive,
    builtin_coverage,
    compare_scaled,
    coverage_value,
    level_power_decimal,
    level_sum_compare,
    subadditive_value,
    support_value_table,
)
from efxcheck.core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    N_AGENTS,
    apply_permutation,
    bundle_of,
    members,
    permutation_power,
)
from efxcheck.ordinal import builtin_profile


# --- level values -----------------------------------------------------------


def test_level_value_ordering():
    zero = LevelValue.zero()
    one = LevelValue.power(0)
    half = LevelValue.power(6)
    assert zero < half < one
    assert LevelValue.power(3) < LevelValue.power(2)
    assert one == LevelValue.power(0)
    assert str(half) == "lambda^6"
    assert str(zero) == "0"
    with pytest.raises(ValueError):
        LevelValue.power(-1)


def test_subadditive_value_examples():
    profile = builtin_profile()
    assert subadditive_value(0, 0, profile) == LevelValue.zero()
    assert subadditive_value(0, bundle_of((0, 1, 2)), profile) == LevelValue.power(0)
    assert subadditive_value(0, bundle_of((5,)), profile) == LevelValue.power(6)


def test_nonempty_values_lie_between_half_and_one():
    profile = builtin_profile()
    sub = build_subadditive(profile)
    for table in sub.exponent_tables:
        assert table[0] is None
        assert all(0 <= e <= 6 for e in table[1:])


# --- compare_scaled ----------------------------------------------------------


def test_compare_scaled_spec_examples():
    # one rank of deficit against the factor lambda itself: equality holds
    assert compare_scaled(LevelValue.power(6), ApproxFactor.parse("lambda^1"), LevelValue.power(5))
    # two ranks of deficit against 9/10: 10^6 < 9^6 * 2^2 = 2125764
    assert 10**6 < 9**6 * 2**2 == 2125764
    assert not compare_scaled(LevelValue.power(6), ApproxFactor.parse("9/10"), LevelValue.power(4))
    # reflexivity at factor 1
    value = LevelValue.power(3)
    assert compare_scaled(value, ApproxFactor.parse("1"), value)


def test_compare_scaled_zero_conventions():
    alpha = ApproxFactor.parse("9/10")
    zero = LevelValue.zero()
    positive = LevelValue.power(4)
    assert compare_scaled(zero, alpha, zero)
    assert compare_scaled(positive, alpha, zero)
    assert not compare_scaled(zero, alpha, positive)


def test_compare_scaled_matches_sixth_power_oracle():
    alphas = [Fraction(1, 2), Fraction(17, 20), Fraction(89, 100), Fraction(9, 10), Fraction(1)]
    for ea, eb in product(range(8), repeat=2):
        a, b = LevelValue.power(ea), LevelValue.power(eb)
        for alpha in alphas:
            # q**(ea - eb) >= alpha iff 2**(eb - ea) >= alpha**6
            expected = Fraction(2) ** (eb - ea) >= alpha**6
            assert compare_scaled(a, ApproxFactor.from_rational(alpha), b) == expected
        for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)):
            expected = Fraction(ea - eb) <= t
            assert compare_scaled(a, ApproxFactor.from_level_exponent(t), b) == expected


def test_approx_factor_parse_and_validation():
    assert str(ApproxFactor.parse("9/10")) == "9/10"
    assert str(ApproxFactor.parse("0.9")) == "9/10"
    assert str(ApproxFactor.parse("lambda^1/2")) == "lambda^1/2"
    assert ApproxFactor.parse("1").rational == 1
    with pytest.raises(ValueError):
        ApproxFactor.parse("0")
    with pytest.raises(ValueError):
        ApproxFactor.parse("3/2")
    with pytest.raises(ValueError):
        ApproxFactor.parse("lambda^-1")
    with pytest.raises(ValueError):
        ApproxFactor.parse("not-a-factor")


# --- algebraic sums ----------------------------------------------------------


def test_level_sum_compare_examples():
    half = LevelValue.power(6)
    assert level_sum_compare([half, half], LevelValue.power(0)) == 0
    assert level_sum_compare([half, half], LevelValue.power(1)) == 1
    assert level_sum_compare([LevelValue.power(3), LevelValue.power(5)], LevelValue.power(2)) == 1
    assert level_sum_compare([], LevelValue.zero()) == 0
    assert level_sum_compare([], LevelValue.power(5)) == -1


def test_algebraic_reduction_by_sixth_power():
    value = AlgebraicValue.from_level_exponent(6)
    assert value.coeffs[0] == Fraction(1, 2)
    assert all(c == 0 for c in value.coeffs[1:])
    value = AlgebraicValue.from_level_exponent(13)  # q**13 = (1/4) q
    assert value.coeffs[1] == Fraction(1, 4)


def test_level_sum_sign_matches_float_oracle_with_margin():
    exponents = [None] + list(range(8))
    for e1, e2, ey in product(exponents, repeat=3):
        values = [LevelValue.zero() if e is None else LevelValue.power(e) for e in (e1, e2)]
        target = LevelValue.zero() if ey is None else LevelValue.power(ey)
        sign = level_sum_compare(values, target)
        approx = float_level_sum([e1, e2], ey)
        if sign == 0:
            assert abs(approx) < 1e-9
        else:
            assert abs(approx) > 1e-9, (e1, e2, ey)
            assert (approx > 0) == (sign > 0)


def test_compare_scaled_consistent_with_level_sum_at_half():
    # alpha = 1/2 = q**6 is representable both ways; a >= (1/2) b matches
    # the sign of a - q**6 b computed algebraically.
    rational = ApproxFactor.from_rational(Fraction(1, 2))
    as_power = ApproxFactor.from_level_exponent(6)
    for ea, eb in product(range(8), repeat=2):
        a, b = LevelValue.power(ea), LevelValue.power(eb)
        lhs = compare_scaled(a, rational, b)
        assert lhs == compare_scaled(a, as_power, b)
        sign = level_sum_compare([a], LevelValue.power(eb + 6))
        assert lhs == (sign >= 0)


def test_level_power_decimal_values():
    assert level_power_decimal(Fraction(0)) == "1.0000000000"
    assert level_power_decimal(Fraction(6)) == "0.5000000000"
    assert level_power_decimal(Fraction(1)) == "0.8908987181"
    assert level_power_decimal(Fraction(1, 2)) == "0.9438743126"
    approx = float(level_power_decimal(Fraction(3)))
    assert abs(approx - LEVEL_BASE**3) < 1e-9


# --- coverage ----------------------------------------------------------------


def test_atom_list_shape():
    weights = tuple(atom.weight for atom in BASE_COVERAGE_ATOMS)
    assert weights == (1, 1, 3, 3, 3, 8, 8, 9, 9, 2, 2)
    assert sum(weights) == 49
    assert len(BASE_COVERAGE_ATOMS) == 11


def test_coverage_value_examples():
    assert coverage_value(0, 0) == 0
    assert coverage_value(0, bundle_of((0, 1))) == 36
    assert coverage_value(0, bundle_of((6,))) == 21
    assert coverage_value(0, FULL_BUNDLE) == 49


def test_coverage_matches_naive_oracle_everywhere():
    for agent in range(N_AGENTS):
        for bundle in ALL_BUNDLES:
            assert coverage_value(agent, bundle) == naive_coverage_for_agent(
                agent, frozenset(members(bundle))
            )


def test_coverage_range_is_21_to_49_for_nonempty():
    values = [coverage_value(0, bundle) for bundle in ALL_BUNDLES[1:]]
    assert min(values) == 21
    assert max(values) == 49


def test_relabeling_identity_for_coverage():
    coverage = builtin_coverage()
    for agent in range(N_AGENTS):
        perm = permutation_power(RELABELING, agent)
        for bundle in ALL_BUNDLES:
            image = apply_permutation(perm, bundle)
            assert coverage.value(agent, bundle) == naive_coverage(frozenset(members(image)))


def test_relabeling_identity_for_level_values():
    profile = builtin_profile()
    sub = build_subadditive(profile)
    for agent in range(N_AGENTS):
        perm = permutation_power(RELABELING, agent)
        for bundle in ALL_BUNDLES[1:]:
            image = apply_permutation(perm, bundle)
            expected = 7 - profile.rank_tables[0][image]
            assert sub.exponent_tables[agent][bundle] == expected


def test_strict_rank_separation_for_coverage():
    profile = builtin_profile()
    ranks = profile.rank_tables[0]
    values = builtin_coverage().value_tables[0]
    for s in ALL_BUNDLES:
        for t in ALL_BUNDLES:
            if ranks[s] > ranks[t]:
                assert values[s] > values[t]


def test_strict_rank_separation_for_level_values():
    profile = builtin_profile()
    sub = build_subadditive(profile)
    ranks = profile.rank_tables[0]
    exponents = sub.exponent_tables[0]
    for s in ALL_BUNDLES:
        for t in ALL_BUNDLES:
            if ranks[s] > ranks[t]:
                value_s = LevelValue.zero() if exponents[s] is None else LevelValue.power(exponents[s])
                value_t = LevelValue.zero() if exponents[t] is None else LevelValue.power(exponents[t])
                assert value_s > value_t


def test_one_rank_gap_scales_by_the_base_exactly():
    # Whenever rank(T) > rank(S), value(S) <= q * value(T): the sign of
    # q**(1 + e_T) - q**(e_S) is non-negative, decided algebraically.
    signs = {
        (ea, eb): level_sum_compare([LevelValue.power(ea)], LevelValue.power(eb))
        for ea in range(9)
        for eb in range(8)
    }
    profile = builtin_profile()
    for agent in range(N_AGENTS):
        table = profile.rank_tables[agent]
        for s in ALL_BUNDLES[1:]:
            e_s = 7 - table[s]
            for t in ALL_BUNDLES[1:]:
                if table[t] > table[s]:
                    assert signs[(7 - table[t] + 1, e_s)] >= 0


def test_support_value_table_rows():
    table = support_value_table()
    assert len(table) == 32
    assert table["BC"] == (5, 46)
    assert table["∅"] == (0, 0)
    assert table["ABCxy"] == (7, 49)


def test_support_value_table_rejects_a_split_support(monkeypatch):
    # Good 3 shares type A with good 0; valuing {3} apart splits support A.
    coverage = builtin_coverage()
    doctored = coverage.replace(value_tables=(
        tuple(v + (bundle == bundle_of((3,))) for bundle, v in enumerate(coverage.value_tables[0])),
    ) + coverage.value_tables[1:])
    monkeypatch.setattr(cardinal, "builtin_coverage", lambda: doctored)
    expected = coverage.value_tables[0][bundle_of((0,))]
    with pytest.raises(SupportCollapseError, match=rf"support A: bundle \(3,\) gives \(1, {expected + 1}\), expected \(1, {expected}\)"):
        support_value_table()


def test_coverage_total_weight_hit_by_full_bundle():
    assert coverage_value(0, FULL_BUNDLE) == sum(a.weight for a in BASE_COVERAGE_ATOMS)


def test_agent_atoms_are_relabeled_base_atoms():
    coverage = build_coverage(builtin_profile())
    for agent in range(N_AGENTS):
        inverse = permutation_power(RELABELING, (3 - agent) % 3)
        expected = {
            (apply_permutation(inverse, atom.covered), atom.weight)
            for atom in BASE_COVERAGE_ATOMS
        }
        actual = {(atom.covered, atom.weight) for atom in coverage.atoms[agent]}
        assert actual == expected
