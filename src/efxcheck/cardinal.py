"""Exact cardinal realizations of the rank order.

Two valuation families share the built-in ordinal instance:

* level values: a nonempty bundle of rank r is worth q**(7 - r) where
  q = 2**(-1/6), so one rank step scales the value by exactly q.  The
  base q is irrational, so verdicts never touch floating point: single
  comparisons reduce to integer exponent arithmetic, comparisons against
  a rational factor are settled by raising both sides to the sixth power
  in exact integers, and signed sums of q-powers are decided in the ring
  generated by q (q has degree 6 over the rationals, with q**6 = 1/2).

* weighted coverage: a bundle is worth the total weight of the atoms it
  intersects, for a fixed eleven-atom list with integer weights summing
  to 49.  Agents 1 and 2 use atom lists pre-relabeled through the inverse
  powers of the cyclic relabeling, so evaluation never permutes the
  queried bundle.

Nothing here uses floating point.  fractions is imported where a
factor is parsed or an exact sign is decided, not with this module: most
commands need neither.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache, total_ordering

from .core import (
    ALL_BUNDLES,
    N_AGENTS,
    Bundle,
    Record,
    apply_permutation,
    bundle_of,
    invert_permutation,
    members,
    permutation_power,
)
from .ordinal import OrdinalProfile, builtin_profile, support_representatives

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

# Largest digit count of a parsed factor's numerator or denominator:
# Python's default limit for converting an int to a decimal string.
MAX_FACTOR_DIGITS = 4300


@total_ordering
class LevelValue(Record):
    """Zero, or the exponent e of a value q**e with q = 2**(-1/6).

    Ordering mirrors the numeric order: zero below everything, and a
    larger exponent means a smaller value.
    """

    exponent: int | None = None

    @classmethod
    def zero(cls) -> "LevelValue":
        return cls(None)

    @classmethod
    def power(cls, exponent: int) -> "LevelValue":
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        return cls(exponent)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def _key(self) -> tuple[int, int]:
        if self.exponent is None:
            return (0, 0)
        return (1, -self.exponent)

    def __lt__(self, other: "LevelValue") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return "0" if self.exponent is None else f"lambda^{self.exponent}"


class ApproxFactor(Record):
    """A factor in (0, 1]: either an exact rational, or q**t for rational t >= 0."""

    rational: Fraction | None = None
    level_exponent: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.rational is None) == (self.level_exponent is None):
            raise ValueError("exactly one of rational and level_exponent must be set")
        if self.rational is not None and not 0 < self.rational <= 1:
            raise ValueError(f"factor must lie in (0, 1], got {self.rational}")
        if self.level_exponent is not None and self.level_exponent < 0:
            raise ValueError(f"level exponent must be non-negative, got {self.level_exponent}")

    @classmethod
    def from_rational(cls, value: Fraction | int | str) -> "ApproxFactor":
        from fractions import Fraction

        return cls(rational=Fraction(value))

    @classmethod
    def from_level_exponent(cls, exponent: Fraction | int | str) -> "ApproxFactor":
        from fractions import Fraction

        return cls(level_exponent=Fraction(exponent))

    @classmethod
    def parse(cls, text: str) -> "ApproxFactor":
        """Parse "p/q", a decimal like "0.9", or "lambda^t" with rational t.

        Numerators and denominators are limited to MAX_FACTOR_DIGITS
        decimal digits, so every factor prints.  A decimal exponent beyond
        that limit is refused before its power of ten is computed.
        """
        text = text.strip()
        try:
            if text.startswith("lambda^"):
                return cls.from_level_exponent(_bounded_fraction(text[len("lambda^"):]))
            return cls.from_rational(_bounded_fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad factor {text!r}: {exc}") from None

    def __str__(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        return f"lambda^{self.level_exponent}"


def _bounded_fraction(text: str) -> Fraction:
    from fractions import Fraction

    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            oversized = abs(int(exponent)) > MAX_FACTOR_DIGITS
        except ValueError:
            oversized = False  # malformed; Fraction names the problem
        if oversized:
            raise ValueError(f"decimal exponent exceeds {MAX_FACTOR_DIGITS} in magnitude")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10**MAX_FACTOR_DIGITS:
        raise ValueError(f"more than {MAX_FACTOR_DIGITS} digits in numerator or denominator")
    return value


def compare_scaled(a: LevelValue, alpha: ApproxFactor, b: LevelValue) -> bool:
    """Exact verdict of a >= alpha * b.

    For powers a = q**p and b = q**e the question is q**(p-e) >= alpha.
    Against a rational alpha both sides are raised to the sixth power,
    turning the verdict into one arbitrary-precision integer comparison;
    against alpha = q**t it is the rational comparison p - e <= t.
    """
    if b.is_zero:
        return True
    if a.is_zero:
        return False
    gap = a.exponent - b.exponent  # type: ignore[operator]
    if alpha.rational is not None:
        p = alpha.rational.numerator
        q = alpha.rational.denominator
        if gap >= 0:
            return q**6 >= p**6 << gap
        return q**6 << -gap >= p**6
    return gap <= alpha.level_exponent  # type: ignore[operator]


_ZERO6 = (0,) * 6


@lru_cache(maxsize=1)
def _level_base_bracket() -> tuple[Fraction, Fraction, Fraction]:
    """A dyadic bracket (low, high) for the level base q = 2**(-1/6), and
    q**6 = 1/2, used to seed the certified interval refinement in
    AlgebraicValue.sign."""
    from fractions import Fraction

    low, high, half = Fraction(89, 100), Fraction(8_909_830_057, 10_000_000_000), Fraction(1, 2)
    assert low**6 < half < high**6
    return low, high, half


class AlgebraicValue(Record):
    """Element of the ring generated by q = 2**(-1/6) over the rationals.

    Stored as rational coefficients (c0, ..., c5) of 1, q, ..., q**5 after
    reduction by q**6 = 1/2; a zero coefficient may be the int 0.  The
    representation is canonical (q has degree 6), so equality is
    coefficient-wise.
    """

    coeffs: tuple[Fraction | int, ...] = _ZERO6

    @classmethod
    def zero(cls) -> "AlgebraicValue":
        return cls(_ZERO6)

    @classmethod
    def from_level_exponent(cls, exponent: int) -> "AlgebraicValue":
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        from fractions import Fraction

        whole, rest = divmod(exponent, 6)
        coeffs: list[Fraction | int] = [0] * 6
        coeffs[rest] = Fraction(1, 2**whole)
        return cls(tuple(coeffs))

    @classmethod
    def from_level(cls, value: LevelValue) -> "AlgebraicValue":
        if value.is_zero:
            return cls.zero()
        return cls.from_level_exponent(value.exponent)  # type: ignore[arg-type]

    def __add__(self, other: "AlgebraicValue") -> "AlgebraicValue":
        return AlgebraicValue(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraicValue") -> "AlgebraicValue":
        return AlgebraicValue(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        """Sign of the value, decided exactly.

        Zero is recognized from the coefficients alone.  Otherwise the
        polynomial is evaluated over a shrinking rational interval that
        certifiably encloses q: each coefficient contributes its worst
        endpoint, giving rigorous lower and upper bounds, and the interval
        is halved (choosing the half containing q via an exact sixth-power
        test) until the bounds exclude zero.  A nonzero element of a
        degree-6 field stays nonzero, so the loop terminates.
        """
        if self.is_zero:
            return 0
        low, high, half = _level_base_bracket()
        for _ in range(10_000):
            low_powers = _endpoint_powers(low)
            high_powers = _endpoint_powers(high)
            lower = sum(
                c * (low_powers[i] if c > 0 else high_powers[i])
                for i, c in enumerate(self.coeffs)
            )
            if lower > 0:
                return 1
            upper = sum(
                c * (high_powers[i] if c > 0 else low_powers[i])
                for i, c in enumerate(self.coeffs)
            )
            if upper < 0:
                return -1
            mid = (low + high) / 2
            if mid**6 > half:
                high = mid
            else:
                low = mid
        raise RuntimeError("interval refinement failed to resolve a nonzero sign")


def _endpoint_powers(point: Fraction) -> tuple[Fraction | int, ...]:
    powers: list[Fraction | int] = [1]
    for _ in range(5):
        powers.append(powers[-1] * point)
    return tuple(powers)


def level_sum_compare(values: Iterable[LevelValue], target: LevelValue) -> int:
    """Sign of (sum of values) - target, decided exactly."""
    total = AlgebraicValue.zero()
    for value in values:
        total = total + AlgebraicValue.from_level(value)
    total = total - AlgebraicValue.from_level(target)
    return total.sign()


def level_power_decimal(exponent: Fraction | int, digits: int = 10) -> str:
    """Decimal rendering of q**exponent truncated toward zero.

    For exponent n/d the result is the largest m with m**(6*d) * 2**n
    <= (10**digits)**(6*d), rendered as m / 10**digits; all integer
    arithmetic, no floating point.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    n, d = exponent.numerator, exponent.denominator
    scale = 10**digits
    # m**(6d) * 2**n <= scale**(6d)
    target = scale ** (6 * d)
    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** (6 * d) << n <= target:
            lo = mid
        else:
            hi = mid - 1
    if lo == scale:
        return "1." + "0" * digits
    return "0." + str(lo).rjust(digits, "0")


# ---------------------------------------------------------------------------
# Level-value (subadditive) profile


class SubadditiveProfile(Record):
    """Per-agent level values derived from an ordinal profile.

    exponent_tables[i][bundle] is top_rank - rank, or None for the empty
    bundle (value zero).
    """

    ordinal: OrdinalProfile
    exponent_tables: tuple[tuple[int | None, ...], ...]

    def value(self, agent: int, bundle: Bundle) -> LevelValue:
        exponent = self.exponent_tables[agent][bundle]
        return LevelValue.zero() if exponent is None else LevelValue.power(exponent)


def build_subadditive(profile: OrdinalProfile) -> SubadditiveProfile:
    tables = tuple(
        tuple(
            None if bundle == 0 else profile.top_rank - ranks[bundle]
            for bundle in ALL_BUNDLES
        )
        for ranks in profile.rank_tables
    )
    return SubadditiveProfile(ordinal=profile, exponent_tables=tables)


def subadditive_value(agent: int, bundle: Bundle, profile: OrdinalProfile) -> LevelValue:
    """Level value of a bundle: zero when empty, else the power top_rank - rank."""
    return build_subadditive(profile).value(agent, bundle)


# ---------------------------------------------------------------------------
# Weighted coverage profile


class CoverageAtom(Record):
    covered: Bundle
    weight: int


# Atom list for agent 0: each atom pays its weight when the bundle meets
# the covered set.  Total weight 49.
BASE_COVERAGE_ATOMS: tuple[CoverageAtom, ...] = (
    CoverageAtom(bundle_of((1, 4)), 1),            # B
    CoverageAtom(bundle_of((2, 5)), 1),            # C
    CoverageAtom(bundle_of((0, 3, 6)), 3),         # A + x
    CoverageAtom(bundle_of((1, 4, 7)), 3),         # B + y
    CoverageAtom(bundle_of((2, 5, 7)), 3),         # C + y
    CoverageAtom(bundle_of((0, 1, 3, 4)), 8),      # A + B
    CoverageAtom(bundle_of((0, 2, 3, 5)), 8),      # A + C
    CoverageAtom(bundle_of((1, 4, 6, 7)), 9),      # B + x + y
    CoverageAtom(bundle_of((2, 5, 6, 7)), 9),      # C + x + y
    CoverageAtom(bundle_of((0, 1, 3, 4, 7)), 2),   # A + B + y
    CoverageAtom(bundle_of((0, 2, 3, 5, 7)), 2),   # A + C + y
)


class CoverageProfile(Record):
    """Per-agent atom lists (pre-relabeled) and memoized value tables."""

    atoms: tuple[tuple[CoverageAtom, ...], ...]
    value_tables: tuple[tuple[int, ...], ...]

    def value(self, agent: int, bundle: Bundle) -> int:
        return self.value_tables[agent][bundle]


def _atom_table(atoms: tuple[CoverageAtom, ...]) -> tuple[int, ...]:
    return tuple(
        sum(atom.weight for atom in atoms if bundle & atom.covered)
        for bundle in ALL_BUNDLES
    )


def build_coverage(profile: OrdinalProfile) -> CoverageProfile:
    """Coverage profile realizing the built-in instance.

    Agent i's atoms are the base atoms mapped through the inverse i-th
    power of the relabeling, which makes agent i's value of a bundle equal
    to agent 0's value of the bundle's i-th image without permuting at
    query time (the identity is asserted by the test suite, not assumed).
    """
    atom_lists = []
    for agent in range(N_AGENTS):
        inverse = invert_permutation(permutation_power(profile.permutation, agent))
        atom_lists.append(
            tuple(
                CoverageAtom(apply_permutation(inverse, atom.covered), atom.weight)
                for atom in BASE_COVERAGE_ATOMS
            )
        )
    return CoverageProfile(
        atoms=tuple(atom_lists),
        value_tables=tuple(_atom_table(atoms) for atoms in atom_lists),
    )


@lru_cache(maxsize=1)
def builtin_coverage() -> CoverageProfile:
    return build_coverage(builtin_profile())


def coverage_value(agent: int, bundle: Bundle) -> int:
    """Built-in coverage value of a bundle for an agent."""
    return builtin_coverage().value_tables[agent][bundle]


class SupportCollapseError(AssertionError):
    """Two bundles with the same type support disagreed on rank or value."""


def support_value_table() -> dict[str, tuple[int, int]]:
    """All 32 type supports with their (rank, coverage value) for agent 0.

    Groups every bundle by support and asserts that rank and value are
    constant on each group before returning one row per support.
    """
    profile = builtin_profile()
    labels = profile.support_labels
    ranks = profile.rank_tables[0]
    values = builtin_coverage().value_tables[0]
    representatives = support_representatives(labels)
    for bundle, representative in zip(ALL_BUNDLES, representatives):
        row, expected = (ranks[bundle], values[bundle]), (ranks[representative], values[representative])
        if row != expected:
            raise SupportCollapseError(
                f"support {labels[bundle]}: bundle {members(bundle)} gives {row}, expected {expected}"
            )
    rows = {labels[b]: (ranks[b], values[b]) for b in set(representatives)}
    return dict(sorted(rows.items(), key=lambda item: (item[1], item[0])))
