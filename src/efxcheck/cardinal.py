"""Exact cardinal realizations of the rank order.

Two valuation families share the built-in ordinal instance:

* level values: a nonempty bundle of rank r is worth q**(7 - r) where
  q = 2**(-1/6), so one rank step scales the value by exactly q.  The
  base q is irrational, so verdicts never touch floating point: single
  comparisons reduce to integer exponent arithmetic, comparisons against
  a rational factor are settled by raising both sides to the sixth power
  in exact integers, and signed sums of q-powers are decided in the ring
  generated by q (q has degree 6 over the rationals, with q**6 = 1/2).

* weighted coverage: agent 0 values a bundle at the total weight of the
  atoms it intersects, for a fixed eleven-atom list with integer weights
  summing to 49.  Agent i values a bundle at agent 0's value of its i-th
  image, read through the profile's bundle_images exactly as the rank
  tables are, so the relabeling rule is written once, in efxcheck.ordinal.

Nothing here uses floating point.  fractions is imported where a
factor is parsed, not with this module: most commands parse none.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import total_ordering

from .core import ALL_BUNDLES, Bundle, Record, bundle_of, members
from .ordinal import OrdinalProfile, support_representatives

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


def level_slack(alpha: ApproxFactor) -> int:
    """Largest integer d >= 0 with q**d >= alpha, where q = 2**(-1/6).

    d = 0 always qualifies because alpha <= 1, and q**d falls as d grows,
    so compare_scaled(a, alpha, b) holds for nonzero a and b exactly when
    their exponent gap is at most d.  For alpha = p/r, raising to the
    sixth power gives 2**d <= r**6 / p**6, and 2**d is an integer, so
    the largest d is the floor of log2 of r**6 // p**6.  For alpha = q**t
    it is the floor of t.
    """
    if alpha.rational is not None:
        return (alpha.rational.denominator**6 // alpha.rational.numerator**6).bit_length() - 1
    return int(alpha.level_exponent)  # type: ignore[arg-type]


# With 1 <= d <= e, q**d + q**e >= 1 exactly when e <= PAIR_GAP_LIMIT[d]:
# the largest e with 2**e <= (1 - q**d)**-6.  No e qualifies once d > 6,
# since then q**d + q**e <= 2 q**7 = q < 1.
PAIR_GAP_LIMIT = {1: 19, 2: 13, 3: 10, 4: 8, 5: 7, 6: 6}


def level_sum_compare(values: Iterable[LevelValue], target: LevelValue) -> int:
    """Sign of (sum of values) - target, decided exactly, for at most two values.

    Dividing by a nonzero target q**c leaves q**d + q**e with the gaps
    d <= e of the nonzero summands' exponents over c.  If d < 0 the sum
    is larger.  If d = 0 it is equal alone and larger with a second
    summand.  If d > 0 it is smaller alone, and with a second summand it
    reaches the target as PAIR_GAP_LIMIT says.  Only integer gaps are
    formed, however large the exponents.  q has degree 6 over the
    rationals (1/q is a root of x**6 - 2, Eisenstein at 2), so
    q**d + q**e = 1 has no solution but d = e = 6.
    """
    values = list(values)
    if len(values) > 2:
        raise ValueError(f"at most two summands are compared, got {len(values)}")
    exponents = sorted(value.exponent for value in values if not value.is_zero)
    if target.is_zero:
        return 1 if exponents else 0
    if not exponents:
        return -1
    d = exponents[0] - target.exponent  # type: ignore[operator]
    if d < 0:
        return 1
    if d == 0:
        return 1 if len(exponents) == 2 else 0
    if len(exponents) == 1:
        return -1
    e = exponents[1] - target.exponent  # type: ignore[operator]
    if d > 6 or e > PAIR_GAP_LIMIT[d]:
        return -1
    return 0 if d == e == 6 else 1


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
    return SubadditiveProfile(exponent_tables=tables)


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
    """Memoized per-agent value tables: value_tables[i][bundle]."""

    value_tables: tuple[tuple[int, ...], ...]

    def value(self, agent: int, bundle: Bundle) -> int:
        return self.value_tables[agent][bundle]


def build_coverage(profile: OrdinalProfile) -> CoverageProfile:
    """Coverage profile realizing the built-in instance.

    Agent 0's table gives each bundle the total weight of the base atoms
    it meets.  Agent i's value of a bundle is agent 0's value of the
    bundle's i-th image, read through profile.bundle_images[i], the same
    rule that gives the profile's rank tables.
    """
    base = tuple(
        sum(atom.weight for atom in BASE_COVERAGE_ATOMS if bundle & atom.covered)
        for bundle in ALL_BUNDLES
    )
    return CoverageProfile(
        value_tables=tuple(tuple(map(base.__getitem__, images)) for images in profile.bundle_images)
    )


class SupportCollapseError(AssertionError):
    """Two bundles with the same type support disagreed on rank or value."""


def support_value_table(profile: OrdinalProfile, coverage: CoverageProfile) -> dict[str, tuple[int, int]]:
    """Every type support with its (rank, coverage value) for agent 0.

    Groups every bundle by support and asserts that rank and value are
    constant on each group before returning one row per support.
    """
    labels = profile.support_labels
    ranks = profile.rank_tables[0]
    values = coverage.value_tables[0]
    representatives = support_representatives(labels)
    for bundle, representative in zip(ALL_BUNDLES, representatives):
        row, expected = (ranks[bundle], values[bundle]), (ranks[representative], values[representative])
        if row != expected:
            raise SupportCollapseError(
                f"support {labels[bundle]}: bundle {members(bundle)} gives {row}, expected {expected}"
            )
    rows = {labels[b]: (ranks[b], values[b]) for b in set(representatives)}
    return dict(sorted(rows.items(), key=lambda item: (item[1], item[0])))
