"""Exhaustive claim checkers producing re-verifiable verdict reports.

Every checker decides a claim over a whole finite universe (the 6561
allocations, the 256 bundles, or pairs thereof) and returns a
VerdictReport whose witnesses a caller can re-evaluate standalone.
Every allocation claim reads one of two cached columns of a key table,
each built in one pass over a shared decode of the universe through
per-agent tables of reduction maxima.  The status column, each
allocation's EFX status as one byte in counter order, serves the EFX
reads: no-EFX, first pair, size patterns and cyclic symmetry, which finds
the rotated allocation's status by counter arithmetic instead of a second
EFX test.  The deficit kernel, each allocation's largest envy gap, serves
alpha-star on the rank tables and the scaled scan on the level keys.  A
6561-allocation universe gains nothing from a process pool.  This module
owns every EFX read: the scans, and efx_feasible, is_efx and
strong_envy_witness for one allocation, all go through the
reduction-maxima tables.

The bundle-pair property checks skip a row of pairs only when an exact
bound rules out every violation in it, and stop once the verdict is
settled and the witness list is full.  Their checked field counts the
whole universe the verdict covers, not the pairs actually visited.
Strict-order transfer follows the same pattern: an agent whose value
keys keep strict rank order over all bundles cannot break transfer, and
only the agents that do not are walked allocation by allocation.  Its
triple count depends on ranks alone and is summed over the disjoint
bundle pairs that the universe's first two columns list.

Ordinal verdicts compare integer ranks.  Cardinal verdicts compare exact
values: coverage values are integers, and level values are compared
through their exponents, which is the exact order on powers of the
irrational base.  Floating point never decides anything here.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache, partial
from itertools import accumulate, chain, combinations, compress, islice, starmap
from operator import gt, le

from .cardinal import (
    ApproxFactor,
    CoverageProfile,
    LevelValue,
    SubadditiveProfile,
    build_coverage,
    build_subadditive,
    compare_scaled,
    level_power_decimal,
    level_sum_compare,
)
from .core import (
    ALL_BUNDLES,
    FULL_BUNDLE,
    GOODS,
    N_AGENTS,
    N_ALLOCATIONS,
    N_GOODS,
    Allocation,
    Bundle,
    Record,
    all_allocations,
    allocation_from_counter,
    members,
    one_good_reductions,
)
from .ordinal import OrdinalProfile, builtin_profile, support_representatives

PROFILE_KINDS = ("ordinal", "subadditive", "coverage")

# Pair supports that remain possible for the first agent's two-good bundle
# once that agent is feasible and no other bundle is a singleton.
ALLOWED_FIRST_PAIR_LABELS = ("Ax", "Ay", "BC", "By", "Cy")

# Frozen results of the first exhaustive deficit computation (see
# compute_deficit_profile); the acceptance suite asserts stability.
GOLDEN_D_STAR = 1
GOLDEN_D_STAR_ARGMIN_COUNTER = 50
GOLDEN_D_STAR_ARGMIN_COUNT = 600
# Minimum deficit among allocations with no empty bundle.  An empty bundle
# violates the scaled condition for every positive factor, so this value,
# not d*, is the cutoff below which scaled-EFX allocations exist.
GOLDEN_MIN_DEFICIT_ALL_NONEMPTY = 1


class Profile(Record):
    """A verification subject: an ordinal profile, optionally realized
    by one of the two cardinal families."""

    kind: str
    ordinal: OrdinalProfile
    subadditive: SubadditiveProfile | None = None
    coverage: CoverageProfile | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "subadditive" and self.subadditive is None:
            raise ValueError("subadditive profile payload missing")
        if self.kind == "coverage" and self.coverage is None:
            raise ValueError("coverage profile payload missing")


@lru_cache(maxsize=None)
def builtin(kind: str) -> Profile:
    """Built-in verification subject of the given kind."""
    base = builtin_profile()
    if kind == "ordinal":
        return Profile(kind="ordinal", ordinal=base)
    if kind == "subadditive":
        return Profile(kind="subadditive", ordinal=base, subadditive=build_subadditive(base))
    if kind == "coverage":
        return Profile(kind="coverage", ordinal=base, coverage=build_coverage(base))
    raise ValueError(f"unknown profile kind {kind!r}")


def profile_value_keys(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Per-agent 256-entry tables of exact order keys for the profile's kind.

    Keys preserve the exact value order: ranks for ordinal profiles,
    negated exponents (empty strictly below) for level values, and the
    integer coverage values themselves.
    """
    if profile.kind == "ordinal":
        return profile.ordinal.rank_tables
    if profile.kind == "coverage":
        return profile.coverage.value_tables  # type: ignore[union-attr]
    bottom = -(profile.ordinal.top_rank + 1)
    return tuple(
        tuple(bottom if e is None else -e for e in table)
        for table in profile.subadditive.exponent_tables  # type: ignore[union-attr]
    )


def display_value(profile: Profile, agent: int, bundle: Bundle) -> int | str:
    """Human-readable exact value used in witness records."""
    if profile.kind == "ordinal":
        return profile.ordinal.rank_tables[agent][bundle]
    if profile.kind == "coverage":
        return profile.coverage.value_tables[agent][bundle]  # type: ignore[union-attr]
    return str(profile.subadditive.value(agent, bundle))  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Reports


class Witness(Record):
    """One re-verifiable violation (or one claimed object, for existence
    claims).  Unused fields stay None."""

    allocation: tuple[tuple[int, ...], ...] | None = None
    agent_i: int | None = None
    agent_j: int | None = None
    good_g: int | None = None
    lhs: int | str | None = None
    rhs: int | str | None = None
    bundle_s: tuple[int, ...] | None = None
    bundle_t: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "allocation": None if self.allocation is None else [list(b) for b in self.allocation],
            "agent_i": self.agent_i,
            "agent_j": self.agent_j,
            "good_g": self.good_g,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "bundle_s": None if self.bundle_s is None else list(self.bundle_s),
            "bundle_t": None if self.bundle_t is None else list(self.bundle_t),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Witness":
        return cls(
            allocation=None
            if data.get("allocation") is None
            else tuple(tuple(b) for b in data["allocation"]),
            agent_i=data.get("agent_i"),
            agent_j=data.get("agent_j"),
            good_g=data.get("good_g"),
            lhs=data.get("lhs"),
            rhs=data.get("rhs"),
            bundle_s=None if data.get("bundle_s") is None else tuple(data["bundle_s"]),
            bundle_t=None if data.get("bundle_t") is None else tuple(data["bundle_t"]),
        )


class VerdictReport(Record):
    """Outcome of one exhaustive check.

    breakdown is a sorted tuple of (key, count) pairs so reports are
    hashable and serialize canonically.  Reports do not time themselves:
    the serialized elapsed_ms is always 0, and from_dict ignores it.
    """

    claim: str
    universe: int
    checked: int
    verdict: str
    witnesses: tuple[Witness, ...] = ()
    breakdown: tuple[tuple[str, int], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "universe": self.universe,
            "checked": self.checked,
            "verdict": self.verdict,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "breakdown": dict(self.breakdown),
            "elapsed_ms": 0,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerdictReport":
        return cls(
            claim=data["claim"],
            universe=data["universe"],
            checked=data["checked"],
            verdict=data["verdict"],
            witnesses=tuple(Witness.from_dict(w) for w in data["witnesses"]),
            breakdown=tuple(sorted(data["breakdown"].items())),
        )


def _report(
    claim: str,
    universe: int,
    checked: int,
    passed: bool,
    witnesses: Iterable[Witness],
    breakdown: dict[str, int],
) -> VerdictReport:
    return VerdictReport(
        claim=claim,
        universe=universe,
        checked=checked,
        verdict="pass" if passed else "fail",
        witnesses=tuple(witnesses),
        breakdown=tuple(sorted(breakdown.items())),
    )


def _allocation_goods(allocation: Allocation) -> tuple[tuple[int, ...], ...]:
    return tuple(members(bundle) for bundle in allocation)


def _pattern_key(pattern: tuple[int, int, int]) -> str:
    return f"({pattern[0]},{pattern[1]},{pattern[2]})"


def _pattern_breakdown(prefix: str, allocations: Iterable[Allocation]) -> dict[str, int]:
    """Allocations counted by their bundle sizes, as breakdown entries."""
    counts = Counter((x0.bit_count(), x1.bit_count(), x2.bit_count()) for x0, x1, x2 in allocations)
    return {f"{prefix}{_pattern_key(pattern)}": n for pattern, n in counts.items()}


# ---------------------------------------------------------------------------
# Allocation-universe scanning
#
# Agent i is content toward another bundle B, up to any one good, exactly
# when key_i[X_i] >= W_i[B], where W_i[B] is the largest key of a one-good
# reduction of B.  One pass over core's decode of the universe turns
# these 256-entry tables into a status column or a deficit kernel, which
# every scan reads.

# The other agents of agent 0, 1 and 2, in ascending order.
_OTHER_AGENTS = ((1, 2), (0, 2), (0, 1))


@lru_cache(maxsize=1)
def _disjoint_pairs() -> tuple[tuple[Bundle, ...], tuple[Bundle, ...], tuple[int, ...]]:
    """The universe as columns (X0, X1, |X2|): every ordered pair of
    disjoint bundles once, with the number of goods outside both."""
    firsts, seconds, thirds = zip(*all_allocations())
    return firsts, seconds, tuple(map(int.bit_count, thirds))


@lru_cache(maxsize=4)
def _reduction_maxima(keys: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """W_i[B] = max over goods g in B of keys[i][B - g], per agent.

    The empty bundle has no reduction; its entry is the table's minimum,
    which never blocks.  The cache is small and bounded: a template run
    never repeats a profile.
    """
    maxima = []
    for table in keys:
        floor = min(table)
        maxima.append(
            tuple(max(map(table.__getitem__, reduced), default=floor) for reduced in one_good_reductions())
        )
    return tuple(maxima)


@lru_cache(maxsize=3)
def _status_column(keys: tuple[tuple[int, ...], ...]) -> bytes:
    """Each allocation's EFX status under the key tables as one byte, in
    counter order: 0 when agent 0 envies another bundle up to one good, 1
    when only agent 1 or 2 does, and 2 when nobody does.  The cache holds
    the columns of the three built-in kinds."""
    (k0, k1, k2), (w0, w1, w2) = keys, _reduction_maxima(keys)

    def status(x0: int, x1: int, x2: int) -> int:
        own = k0[x0]
        if own < w0[x1] or own < w0[x2]:
            return 0
        own = k1[x1]
        if own < w1[x0] or own < w1[x2]:
            return 1
        own = k2[x2]
        return 1 if own < w2[x0] or own < w2[x1] else 2

    return bytes(starmap(status, all_allocations()))


@lru_cache(maxsize=2)
def _deficits(keys: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Each allocation's deficit under the key tables, in counter order:
    max(0, max over agents i and bundles j != i of W_i[X_j] - key_i[X_i]),
    the largest key gap by which an agent envies another bundle up to one
    good.  It is 0 exactly when the allocation is EFX.  The cache holds
    the two tables a process serving the built-ins grades: the ranks,
    for alpha-star, and the level keys, for the scaled scan."""
    (k0, k1, k2), (w0, w1, w2) = keys, _reduction_maxima(keys)

    def deficit(x0: int, x1: int, x2: int) -> int:
        a, b = w0[x1], w0[x2]
        worst = (a if a > b else b) - k0[x0]
        a, b = w1[x0], w1[x2]
        gap = (a if a > b else b) - k1[x1]
        if gap > worst:
            worst = gap
        a, b = w2[x0], w2[x1]
        gap = (a if a > b else b) - k2[x2]
        if gap > worst:
            worst = gap
        return worst if worst > 0 else 0

    return tuple(starmap(deficit, all_allocations()))


# --- single allocations ------------------------------------------------------


def efx_feasible(agent: int, allocation: Allocation, profile: OrdinalProfile) -> bool:
    """Single-agent condition: the agent's bundle ranks at least as high as
    every other bundle with any one good removed."""
    ranks = profile.rank_tables
    own = ranks[agent][allocation[agent]]
    maxima = _reduction_maxima(ranks)[agent]
    return all(own >= maxima[allocation[j]] for j in _OTHER_AGENTS[agent])


def is_efx(allocation: Allocation, profile: OrdinalProfile) -> bool:
    return strong_envy_witness(allocation, profile) is None


def strong_envy_witness(
    allocation: Allocation, profile: OrdinalProfile
) -> tuple[int, int, int] | None:
    """Lexicographically first (i, j, g) with agent i preferring bundle j
    minus good g over their own bundle; None when the allocation is EFX.
    The first (i, j) whose reduction maximum beats agent i's own rank
    holds the witness; its good is then found one at a time."""
    ranks = profile.rank_tables
    for i, (table, maxima) in enumerate(zip(ranks, _reduction_maxima(ranks))):
        own = table[allocation[i]]
        for j in _OTHER_AGENTS[i]:
            bundle = allocation[j]
            if maxima[bundle] > own:
                return i, j, next(g for g in members(bundle) if table[bundle ^ (1 << g)] > own)
    return None


def _allocation_witnesses(counters: Iterable[int]) -> tuple[Witness, ...]:
    universe = all_allocations()
    return tuple(Witness(allocation=_allocation_goods(universe[c])) for c in counters)


# --- no-EFX ----------------------------------------------------------------


def verify_no_efx(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """Scan all 6561 allocations; pass means none is EFX.

    A witness is an EFX allocation (a counterexample to the claim).  The
    breakdown counts allocations feasible for agent 0 by size pattern and
    records the total EFX count.
    """
    column = _status_column(profile_value_keys(profile))
    efx = [counter for counter, verdict in enumerate(column) if verdict == 2]
    return _report(
        claim=f"no_efx_{profile.kind}",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not efx,
        witnesses=_allocation_witnesses(efx[:witness_limit]),
        breakdown={
            "efx_allocations": len(efx),
            **_pattern_breakdown("feasible0", compress(all_allocations(), column)),
        },
    )


# --- no scaled-EFX ----------------------------------------------------------


def _scale_slack(alpha: ApproxFactor, top_rank: int) -> int:
    """Largest exponent gap d <= top_rank with q**d >= alpha.

    d = 0 always qualifies because alpha <= 1, and the verdict is monotone
    in d, so an agent meets the scaled condition exactly when every gap
    it faces is at most the slack.  No reachable gap exceeds top_rank.
    """
    slack = 0
    while slack < top_rank and compare_scaled(LevelValue.power(slack + 1), alpha, LevelValue.power(0)):
        slack += 1
    return slack


def verify_no_alpha_efx(
    profile: Profile, alpha: ApproxFactor, witness_limit: int = 10
) -> VerdictReport:
    """Pass when no allocation satisfies the alpha-scaled condition
    value(own) >= alpha * value(other minus any one good), decided exactly.

    The allocations that satisfy it are those with no empty bundle whose
    deficit under the level keys is at most the slack of alpha.  Keys are
    negated exponents, so one rank step is one power of the base: an
    agent holding a nonempty bundle meets the condition against a nonempty
    reduction exactly when the key gap is at most the slack, and always
    against the empty reduction, whose key is the lowest.  An agent
    holding the empty bundle, worth nothing, meets it only when every
    reduction it faces is worth nothing.  But the other two bundles then
    share all 8 goods, so one of them holds at least 4, and each of its
    one-good reductions is a nonempty bundle, worth more than nothing.
    That last step needs a value for every nonempty bundle, so a payload
    that gives one a zero value is refused.
    """
    if profile.kind != "subadditive":
        raise ValueError(f"scaled verification needs a subadditive profile, got {profile.kind}")
    if any(None in table[1:] for table in profile.subadditive.exponent_tables):  # type: ignore[union-attr]
        raise ValueError("scaled verification needs a positive level value on every nonempty bundle")
    slack = _scale_slack(alpha, profile.ordinal.top_rank)
    universe = all_allocations()
    holds = [
        counter
        for counter, (allocation, deficit) in enumerate(zip(universe, _deficits(profile_value_keys(profile))))
        if deficit <= slack and all(allocation)
    ]
    return _report(
        claim=f"no_alpha_efx({alpha})",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not holds,
        witnesses=_allocation_witnesses(holds[:witness_limit]),
        breakdown={
            "alpha_efx_allocations": len(holds),
            **_pattern_breakdown("alpha_efx", map(universe.__getitem__, holds)),
        },
    )


# --- deficit profile ---------------------------------------------------------


class DeficitProfile(Record):
    """Worst rank deficits per allocation, aggregated.

    deficits[counter] is the largest envy gap max(0, rank_i(other minus
    one good) - rank_i(own)) of the allocation with that counter; it is 0
    exactly when that allocation is EFX.  d_star is the minimum over all
    allocations, and min_deficit_all_nonempty restricts the minimum to
    allocations without empty bundles (an empty bundle violates any
    positive scale factor regardless of its deficit).
    """

    d_star: int
    argmin_counters: tuple[int, ...]
    argmin_count: int
    min_deficit_all_nonempty: int
    histogram: tuple[tuple[int, int], ...]
    deficits: tuple[int, ...]

    def argmin_allocations(self) -> tuple[Allocation, ...]:
        return tuple(allocation_from_counter(c) for c in self.argmin_counters)

    def alpha_star_exact(self) -> str:
        return f"2^(-{self.d_star}/6)"

    def alpha_star_decimal(self, digits: int = 10) -> str:
        return level_power_decimal(self.d_star, digits)


def compute_deficit_profile(profile: Profile, argmin_limit: int = 10) -> DeficitProfile:
    """Rank deficit of every allocation, read from the deficit kernel on
    the rank tables, with the global minimum and its attaining
    allocations in counter order."""
    deficits = _deficits(profile.ordinal.rank_tables)
    d_star = min(deficits)
    argmin = [counter for counter, deficit in enumerate(deficits) if deficit == d_star]
    return DeficitProfile(
        d_star=d_star,
        argmin_counters=tuple(argmin[:argmin_limit]),
        argmin_count=len(argmin),
        min_deficit_all_nonempty=min(compress(deficits, map(all, all_allocations()))),
        histogram=tuple(sorted(Counter(deficits).items())),
        deficits=deficits,
    )


# ---------------------------------------------------------------------------
# Bundle-universe property checks

# The universes the property checks cover: (bundle, good) pairs, ordered
# bundle pairs, and (good, S within T avoiding the good) triples.
N_MONOTONE_PAIRS = len(ALL_BUNDLES) * N_GOODS
N_BUNDLE_PAIRS = len(ALL_BUNDLES) ** 2
N_NESTED_PAIRS = N_GOODS * 3 ** (N_GOODS - 1)

# Each check below yields its violations lazily, in scan order, and
# _first_violations stops consuming them once the verdict is settled and
# the witness list is full: reports carry no violation count.


def _first_violations(violations: Iterator[Witness], witness_limit: int) -> tuple[bool, tuple[Witness, ...]]:
    """(no violation at all, the first witness_limit violations)."""
    first = next(violations, None)
    if first is None:
        return True, ()
    return False, tuple(islice(chain((first,), violations), max(witness_limit, 0)))


def check_monotone(
    key_table: tuple[int, ...],
    claim: str,
    display: Callable[[Bundle], int | str] | None = None,
    witness_limit: int = 10,
) -> VerdictReport:
    """Adding any good never lowers the value (checked on order keys).

    display gives a bundle's value as a witness shows it; by default the
    key itself.  checked counts every (bundle, good) pair.
    """
    show = display or key_table.__getitem__

    def violations() -> Iterator[Witness]:
        for bundle in ALL_BUNDLES:
            base = key_table[bundle]
            for g in GOODS:
                extended = bundle | (1 << g)
                if key_table[extended] < base:
                    yield Witness(bundle_s=members(bundle), good_g=g, lhs=show(extended), rhs=show(bundle))

    passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_MONOTONE_PAIRS, N_MONOTONE_PAIRS, passed, witnesses, {})


@lru_cache(maxsize=None)
def _pair_sum_sign(e_first: int | None, e_second: int | None, e_union: int | None) -> int:
    values = [
        LevelValue.zero() if e is None else LevelValue.power(e)
        for e in (e_first, e_second)
    ]
    target = LevelValue.zero() if e_union is None else LevelValue.power(e_union)
    return level_sum_compare(values, target)


def _superset_maxima(table: Iterable[int]) -> list[int]:
    """U[S] = the largest entry of table over the supersets of S."""
    greatest = list(table)
    for g in GOODS:
        bit = 1 << g
        for bundle in ALL_BUNDLES:
            if not bundle & bit and greatest[bundle | bit] > greatest[bundle]:
                greatest[bundle] = greatest[bundle | bit]
    return greatest


def check_subadditive(
    exponent_table: tuple[int | None, ...],
    claim: str,
    witness_limit: int = 10,
) -> VerdictReport:
    """value(S) + value(T) >= value(S union T) over all 65536 bundle pairs,
    decided by exact algebraic sums of level values.

    A pair with an empty side never violates, since values are never
    negative.  Row S is scanned only when value(S) + m < U(S), where m is
    the least value of a nonempty bundle and U(S) the greatest value of a
    superset of S: otherwise every T gives value(S) + value(T) >=
    value(S) + m >= U(S) >= value(S union T).  That bound is one exact
    sum per row.  checked counts all 65536 pairs.
    """
    # Order keys of the values: exponents negated, zero strictly below.
    bottom = -1 - max((e for e in exponent_table if e is not None), default=0)
    keys = [bottom if e is None else -e for e in exponent_table]

    def exponent(key: int) -> int | None:
        return None if key == bottom else -key

    least = exponent(min(keys[1:]))
    greatest = _superset_maxima(keys)

    def violations() -> Iterator[Witness]:
        for first in ALL_BUNDLES[1:]:
            e_first = exponent_table[first]
            if _pair_sum_sign(e_first, least, exponent(greatest[first])) >= 0:
                continue
            for second in ALL_BUNDLES[1:]:
                e_second, e_union = exponent_table[second], exponent_table[first | second]
                if _pair_sum_sign(e_first, e_second, e_union) < 0:
                    yield Witness(
                        bundle_s=members(first),
                        bundle_t=members(second),
                        lhs=f"{LevelValue(e_first)} + {LevelValue(e_second)}",
                        rhs=str(LevelValue(e_union)),
                    )

    passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_BUNDLE_PAIRS, N_BUNDLE_PAIRS, passed, witnesses, {})


def _locally_submodular(value_table: tuple[int, ...]) -> bool:
    """f(S+g) - f(S) >= f(S+g+h) - f(S+h) for every S and goods g < h
    outside S.  Chaining the goods of T - S one at a time turns this into
    diminishing returns for every nested S within T, so the two agree on
    any set function."""
    for bundle in ALL_BUNDLES:
        base = value_table[bundle]
        outside = [bundle | (1 << g) for g in GOODS if not bundle >> g & 1]
        for with_g, with_h in combinations(outside, 2):
            if value_table[with_g] + value_table[with_h] < value_table[with_g | with_h] + base:
                return False
    return True


def check_submodular(
    value_table: tuple[int, ...],
    claim: str,
    witness_limit: int = 10,
) -> VerdictReport:
    """Diminishing returns: for every good g and nested S within T avoiding
    g, the marginal of g on S is at least its marginal on T.

    The local test of _locally_submodular (1792 sums) decides a passing
    table.  A failing one is enumerated by submask iteration over the
    nested pairs, for its witnesses in scan order.  checked counts all
    8 * 3^7 ordered nested pairs.
    """

    def violations() -> Iterator[Witness]:
        for g in GOODS:
            bit = 1 << g
            rest = FULL_BUNDLE & ~bit
            t = rest
            while True:
                marginal_t = value_table[t | bit] - value_table[t]
                s = t
                while True:
                    marginal_s = value_table[s | bit] - value_table[s]
                    if marginal_s < marginal_t:
                        yield Witness(
                            bundle_s=members(s), bundle_t=members(t), good_g=g, lhs=marginal_s, rhs=marginal_t
                        )
                    if s == 0:
                        break
                    s = (s - 1) & t
                if t == 0:
                    break
                t = (t - 1) & rest

    if _locally_submodular(value_table):
        passed, witnesses = True, ()
    else:
        passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_NESTED_PAIRS, N_NESTED_PAIRS, passed, witnesses, {})


def _lower_rank_maxima(rank_table: tuple[int, ...], key_table: tuple[int, ...]) -> dict[int, int]:
    """below[r]: the largest key of a bundle ranked strictly below r, for
    every rank r in the table; the lowest rank, which has no such bundle,
    gets a key under every key.  A bundle of rank r has a key no higher
    than some lower-ranked bundle's exactly when its key is at most
    below[r]."""
    top_key: dict[int, int] = {}
    for rank, key in zip(rank_table, key_table):
        top_key[rank] = max(key, top_key.get(rank, key))
    ranks = sorted(top_key)
    return dict(zip(ranks, accumulate(map(top_key.__getitem__, ranks), max, initial=min(key_table) - 1)))


def check_strict_consistency(
    rank_table: tuple[int, ...],
    key_table: tuple[int, ...],
    claim: str,
    display: Callable[[Bundle], int | str] | None = None,
    witness_limit: int = 10,
) -> VerdictReport:
    """A strictly higher rank forces a strictly higher value, over all
    65536 ordered bundle pairs.

    Row S holds a violation exactly when key(S) is at most the largest
    key of a strictly lower rank, a running maximum over the distinct
    ranks; only such rows are scanned.  display is as for check_monotone.
    checked counts all 65536 pairs.
    """
    show = display or key_table.__getitem__
    below = _lower_rank_maxima(rank_table, key_table)

    def violations() -> Iterator[Witness]:
        for first in ALL_BUNDLES:
            rank_first, key_first = rank_table[first], key_table[first]
            if key_first > below[rank_first]:
                continue
            for second in ALL_BUNDLES:
                if rank_first > rank_table[second] and key_first <= key_table[second]:
                    yield Witness(
                        bundle_s=members(first), bundle_t=members(second), lhs=show(first), rhs=show(second)
                    )

    passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_BUNDLE_PAIRS, N_BUNDLE_PAIRS, passed, witnesses, {})


def check_support_collapse(
    value_table: tuple,
    support_labels: tuple[str, ...],
    claim: str,
    witness_limit: int = 10,
) -> VerdictReport:
    """The value of a bundle depends only on its type support: each
    bundle is compared with its support class's representative."""
    representatives = support_representatives(support_labels)

    def violations() -> Iterator[Witness]:
        for bundle, representative in zip(ALL_BUNDLES, representatives):
            if value_table[bundle] != value_table[representative]:
                yield Witness(
                    bundle_s=members(representative),
                    bundle_t=members(bundle),
                    lhs=value_table[representative],
                    rhs=value_table[bundle],
                )

    passed, witnesses = _first_violations(violations(), witness_limit)
    breakdown = {"support_classes": len(set(representatives))}
    return _report(claim, len(ALL_BUNDLES), len(ALL_BUNDLES), passed, witnesses, breakdown)


def check_normalized_levels(
    exponent_table: tuple[int | None, ...],
    claim: str,
    top_rank: int,
) -> VerdictReport:
    """Empty bundle worth zero, nonempty bundles positive and at most one
    (exponents non-negative); records the exponent range."""
    witnesses: list[Witness] = []
    if exponent_table[0] is not None:
        witnesses.append(Witness(bundle_s=(), lhs=str(LevelValue(exponent_table[0])), rhs="0"))
    for bundle in ALL_BUNDLES[1:]:
        e = exponent_table[bundle]
        if e is None or e < 0:
            witnesses.append(Witness(bundle_s=members(bundle), lhs=str(LevelValue(e)), rhs="(0, 1]"))
            break
    exponents = [e for e in exponent_table[1:] if e is not None]
    breakdown = {
        "min_exponent": min(exponents, default=0),
        "max_exponent": max(exponents, default=0),
        "top_rank": top_rank,
    }
    return _report(claim, len(ALL_BUNDLES), len(ALL_BUNDLES), not witnesses, witnesses, breakdown)


def check_normalized_ints(value_table: tuple[int, ...], claim: str) -> VerdictReport:
    """Empty bundle worth zero and all values non-negative; records the
    nonempty value range."""
    witnesses: list[Witness] = []
    if value_table[0] != 0:
        witnesses.append(Witness(bundle_s=(), lhs=value_table[0], rhs=0))
    for bundle in ALL_BUNDLES[1:]:
        if value_table[bundle] < 0:
            witnesses.append(Witness(bundle_s=members(bundle), lhs=value_table[bundle], rhs=0))
            break
    breakdown = {
        "min_nonempty_value": min(value_table[1:]),
        "max_nonempty_value": max(value_table[1:]),
    }
    return _report(claim, len(ALL_BUNDLES), len(ALL_BUNDLES), not witnesses, witnesses, breakdown)


# ---------------------------------------------------------------------------
# Lemma-level allocation checks


def verify_lemma_first_pair(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """When the first bundle is a pair and no other bundle is smaller than
    a pair, agent-0 feasibility confines the pair's type support to
    Ax, Ay, BC, By, Cy."""
    column = _status_column(profile_value_keys(profile))
    labels = profile.ordinal.support_labels
    candidates = [
        (counter, x0)
        for counter, (x0, x1, x2) in enumerate(all_allocations())
        if x0.bit_count() == 2 and x1.bit_count() >= 2 and x2.bit_count() >= 2
    ]
    feasible = [(counter, labels[x0]) for counter, x0 in candidates if column[counter]]
    violations = [counter for counter, label in feasible if label not in ALLOWED_FIRST_PAIR_LABELS]
    label_counts = Counter(label for _, label in feasible)
    return _report(
        claim="first_pair_restriction",
        universe=len(candidates),
        checked=len(candidates),
        passed=not violations,
        witnesses=_allocation_witnesses(violations[:witness_limit]),
        breakdown={f"feasible_first_pair[{label}]": n for label, n in label_counts.items()},
    )


def _size_class(sizes: tuple[int, int, int]) -> str | None:
    if sizes[0] <= 1:
        return "small_first"
    if sizes in ((2, 2, 4), (2, 3, 3)):
        return _pattern_key(sizes)
    return None


def _size_multiset_covered(sizes: tuple[int, int, int]) -> bool:
    return min(sizes) <= 1 or tuple(sorted(sizes)) in ((2, 2, 4), (2, 3, 3))


def verify_size_pattern_props(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """Three class checks in one pass: no EFX allocation has a bundle of
    size at most one in first position, none has ordered sizes (2,2,4),
    and none has (2,3,3).

    The class sizes are cross-checked against multinomial counts, and the
    rotation argument's completeness (every size multiset of 8 into 3
    parts is reachable from one of the three classes by rotation) is
    verified by enumerating all ordered size triples.
    """
    column = _status_column(profile_value_keys(profile))
    classes = {name: [0, []] for name in ("small_first", "(2,2,4)", "(2,3,3)")}
    for counter, (x0, x1, x2) in enumerate(all_allocations()):
        name = _size_class((x0.bit_count(), x1.bit_count(), x2.bit_count()))
        if name is None:
            continue
        classes[name][0] += 1
        if column[counter] == 2:
            classes[name][1].append(counter)

    factorial = math.factorial
    expected_universe = {
        "small_first": 2**N_GOODS + N_GOODS * 2 ** (N_GOODS - 1),
        "(2,2,4)": factorial(8) // (factorial(2) * factorial(2) * factorial(4)),
        "(2,3,3)": factorial(8) // (factorial(2) * factorial(3) * factorial(3)),
    }
    covered = all(
        _size_multiset_covered((a, b, 8 - a - b))
        for a in range(9)
        for b in range(9 - a)
    )

    breakdown: dict[str, int] = {"size_triples_covered": int(covered)}
    witness_counters: list[int] = []
    passed = covered
    for name, (universe, efx) in classes.items():
        breakdown[f"universe[{name}]"] = universe
        breakdown[f"efx[{name}]"] = len(efx)
        if universe != expected_universe[name] or efx:
            passed = False
        witness_counters += efx[: max(0, witness_limit - len(witness_counters))]
    total_universe = sum(universe for universe, _ in classes.values())
    return _report(
        claim="size_pattern_propositions",
        universe=total_universe,
        checked=total_universe,
        passed=passed,
        witnesses=_allocation_witnesses(witness_counters),
        breakdown=breakdown,
    )


def verify_cyclic_symmetry(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """EFX status is invariant under one cyclic relabeling step, for all
    6561 allocations, under the profile's own comparisons.

    The image of (X0, X1, X2) is (perm(X1), perm(X2), perm(X0)).  A counter
    is the sum of agent(g) * 3^g, so the image's counter is w[perm(X2)] +
    2 * w[perm(X0)], where w[B] (the sum of 3^g over g in B) is B's binary
    digits read in base 3; its status is read from the same column.  A
    witness names its own direction: EFX and not after rotation, or the
    reverse."""
    column = _status_column(profile_value_keys(profile))
    rotated = [int(f"{image:b}", 3) for image in profile.ordinal.bundle_images[1]]
    universe = all_allocations()
    mismatches = [
        counter
        for counter, (x0, _, x2) in enumerate(universe)
        if (column[counter] == 2) != (column[rotated[x2] + 2 * rotated[x0]] == 2)
    ]
    witnesses = []
    for c in mismatches[:witness_limit]:
        lhs, rhs = ("EFX", "not EFX after rotation") if column[c] == 2 else ("not EFX", "EFX after rotation")
        witnesses.append(Witness(allocation=_allocation_goods(universe[c]), lhs=lhs, rhs=rhs))
    return _report(
        claim=f"cyclic_symmetry({profile.kind})",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not mismatches,
        witnesses=witnesses,
        breakdown={"efx_allocations": column.count(2)},
    )


def _strict_order_breaks(rank_table: tuple[int, ...], key_table: tuple[int, ...]) -> bool:
    """Whether some bundle ranks strictly above another without a
    strictly higher key."""
    below = _lower_rank_maxima(rank_table, key_table)
    return any(map(le, key_table, map(below.__getitem__, rank_table)))


@lru_cache(maxsize=1)
def _ordinal_triples(rank_tables: tuple[tuple[int, ...], ...]) -> int:
    """Ordinal strong-envy triples (allocation, i, j != i, g in X_j) with
    rank_i(X_j - g) > rank_i(X_i), summed over agents i.

    For fixed i and j, an allocation is a disjoint pair (A, B) = (X_i, X_j)
    and a triple is a pair (A, S = B - g) with g outside both, so the
    count is the sum over disjoint (A, S) with rank_i(S) > rank_i(A) of
    the goods outside A and S.  The universe's (X0, X1, |X2|) columns list
    exactly those pairs and counts, for either j.
    """
    firsts, seconds, spare = _disjoint_pairs()
    return 2 * sum(
        sum(compress(spare, map(gt, map(table.__getitem__, seconds), map(table.__getitem__, firsts))))
        for table in rank_tables
    )


def verify_transfer(
    ordinal_profile: Profile, cardinal_profile: Profile, witness_limit: int = 10
) -> VerdictReport:
    """Every ordinal strong-envy triple stays a strict value violation
    under the cardinal realization, over all allocations and triples.

    A violation is a triple whose reduced bundle ranks above the owner's
    bundle without a strictly higher value key.  An agent whose keys keep
    strict rank order over all 256 bundles (every key above the largest
    key of a lower rank) has none, disjoint bundles or not; when every
    agent does, the claim passes with no further work.  Otherwise the
    allocations are walked good by good for the agents that break strict
    order, until the verdict is settled and witness_limit witnesses are
    held, in (allocation, i, j, g) order.  checked counts every ordinal
    triple, from disjoint bundle pairs (see _ordinal_triples).
    """
    if cardinal_profile.ordinal != ordinal_profile.ordinal:
        raise ValueError("cardinal profile must realize the given ordinal profile")
    ranks = ordinal_profile.ordinal.rank_tables
    keys = profile_value_keys(cardinal_profile)
    triples = _ordinal_triples(ranks)
    breaking = [i for i in range(N_AGENTS) if _strict_order_breaks(ranks[i], keys[i])]

    def violations() -> Iterator[Witness]:
        for allocation in all_allocations():
            for i in breaking:
                rank_table, key_table = ranks[i], keys[i]
                own = allocation[i]
                own_rank, own_key = rank_table[own], key_table[own]
                for j in _OTHER_AGENTS[i]:
                    for g in members(allocation[j]):
                        reduced = allocation[j] ^ (1 << g)
                        if rank_table[reduced] > own_rank and key_table[reduced] <= own_key:
                            yield Witness(
                                allocation=_allocation_goods(allocation),
                                agent_i=i,
                                agent_j=j,
                                good_g=g,
                                lhs=display_value(cardinal_profile, i, own),
                                rhs=display_value(cardinal_profile, i, reduced),
                            )

    passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(
        claim=f"strict_order_transfer({cardinal_profile.kind})",
        universe=N_ALLOCATIONS,
        checked=triples,
        passed=passed,
        witnesses=witnesses,
        breakdown={"ordinal_witness_triples": triples},
    )


# ---------------------------------------------------------------------------
# Suites


def property_reports(profile: Profile, witness_limit: int = 10) -> list[VerdictReport]:
    """The applicable property suite for a profile kind."""
    reports: list[VerdictReport] = []
    ordinal = profile.ordinal
    if profile.kind == "ordinal":
        for agent in range(N_AGENTS):
            reports.append(
                check_monotone(
                    ordinal.rank_tables[agent],
                    f"monotone(rank[{agent}])",
                    witness_limit=witness_limit,
                )
            )
        for agent in range(N_AGENTS):
            reports.append(
                check_support_collapse(
                    ordinal.rank_tables[agent],
                    ordinal.support_labels,
                    f"support_collapse(rank[{agent}])",
                    witness_limit=witness_limit,
                )
            )
        return reports

    if profile.kind == "subadditive":
        sub = profile.subadditive
        assert sub is not None
        keys = profile_value_keys(profile)
        for agent in range(N_AGENTS):
            display = partial(display_value, profile, agent)
            reports.append(
                check_monotone(
                    keys[agent],
                    f"monotone(level_value[{agent}])",
                    display=display,
                    witness_limit=witness_limit,
                )
            )
            reports.append(
                check_subadditive(
                    sub.exponent_tables[agent],
                    f"subadditive(level_value[{agent}])",
                    witness_limit=witness_limit,
                )
            )
            reports.append(
                check_strict_consistency(
                    ordinal.rank_tables[agent],
                    keys[agent],
                    f"strict_consistency(rank[{agent}],level_value[{agent}])",
                    display=display,
                    witness_limit=witness_limit,
                )
            )
            reports.append(
                check_normalized_levels(
                    sub.exponent_tables[agent],
                    f"normalized(level_value[{agent}])",
                    ordinal.top_rank,
                )
            )
        return reports

    coverage = profile.coverage
    assert coverage is not None
    for agent in range(N_AGENTS):
        table = coverage.value_tables[agent]
        reports.append(
            check_monotone(table, f"monotone(coverage[{agent}])", witness_limit=witness_limit)
        )
        reports.append(
            check_submodular(table, f"submodular(coverage[{agent}])", witness_limit=witness_limit)
        )
        reports.append(
            check_strict_consistency(
                ordinal.rank_tables[agent],
                table,
                f"strict_consistency(rank[{agent}],coverage[{agent}])",
                witness_limit=witness_limit,
            )
        )
        reports.append(check_normalized_ints(table, f"normalized(coverage[{agent}])"))
        reports.append(
            check_support_collapse(
                table,
                ordinal.support_labels,
                f"support_collapse(coverage[{agent}])",
                witness_limit=witness_limit,
            )
        )
    return reports


def lemma_reports(witness_limit: int = 10) -> list[VerdictReport]:
    """Every lemma and proposition verifier over the built-in profiles."""
    ordinal = builtin("ordinal")
    reports = [
        verify_cyclic_symmetry(ordinal, witness_limit),
        verify_cyclic_symmetry(builtin("subadditive"), witness_limit),
        verify_cyclic_symmetry(builtin("coverage"), witness_limit),
        verify_lemma_first_pair(ordinal, witness_limit),
        verify_size_pattern_props(ordinal, witness_limit),
        verify_transfer(ordinal, builtin("subadditive"), witness_limit),
        verify_transfer(ordinal, builtin("coverage"), witness_limit),
    ]
    return reports
