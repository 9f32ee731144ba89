"""Exhaustive claim checkers producing re-verifiable verdict reports.

Every checker decides a claim over a whole finite universe (the 6561
allocations, the 256 bundles, or pairs thereof) and returns a
VerdictReport whose witnesses a caller can re-evaluate standalone.  A
witness limit below zero gives no witnesses, as zero does.

Every allocation claim reads columns in counter order.  Two belong to a
key table and are cached per table, both built from per-agent tables of
reduction maxima W_i[B], the largest key of a one-good reduction of B.
The status column (each allocation's EFX status as one byte) is built on
dense keys, each key replaced by its index among the table's distinct
keys, which is one byte and keeps their order.  core's bundle lanes are
its byte columns X0, X1 and X2 widened to lane columns: a bundle in the
low byte of each big-endian 16-bit lane, over a zero pad byte.
Translated through an agent's dense keys or maxima and read as integers,
they give the lane integers K_i[X_i] and W_i[X_j]; with LOW holding
0x00FF in every lane, each lane of W_i[X_j] + LOW - K_i[X_i] lies in
[0, 510], so no borrow crosses a lane and bit 8 of the lane is exactly
K_i[X_i] < W_i[X_j].  The maxima come the same way, folding the 8
one-good reductions of the 256 bundles lane by lane, so neither runs
Python code per allocation or per bundle.  The deficit kernel (an
allocation's largest envy gap, which needs real key differences) is one
pass over core's three bundle columns, zipped.  The others are core's
universe columns, which no valuation changes and which core derives from
the bundle columns: size codes, the nonempty mask, the bundle lanes and
the rotation column.  Claims read them with C-level operations: no-EFX
counts status bytes and the size codes left once those of agent-0
infeasible allocations are deleted, size patterns count a class column
translated from the size codes, the first pair reads a cached candidate
list, cyclic symmetry checks that the rotation column sends every EFX
counter to an EFX counter, and alpha-star and the scaled scan read the
deficit kernel under the nonempty mask.  A 6561-allocation universe
gains nothing from a process pool.  This module owns every EFX read: the
scans, and is_efx and strong_envy_witness for one allocation, all go
through the reduction-maxima tables.

The bundle-pair property checks skip a row of pairs only when an exact
bound rules out every violation in it, and stop once the verdict is
settled and the witness list is full.  Their checked field counts the
whole universe the verdict covers, not the pairs actually visited.
Strict-order transfer follows the same pattern: an agent whose value
keys keep strict rank order over all bundles cannot break transfer, so
only the agents that do not are walked allocation by allocation, and
the universe is not walked at all when every agent keeps it.  Its
triple count depends on ranks alone and is summed over the disjoint
bundle pairs that the universe's first two columns list, weighted by
the size of the third bundle.

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
from itertools import accumulate, chain, combinations, compress, islice, repeat, starmap
from operator import eq, gt, le, ne

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
    BUNDLE_SIZES,
    FULL_BUNDLE,
    GOODS,
    N_AGENTS,
    N_ALLOCATIONS,
    N_GOODS,
    Allocation,
    Bundle,
    Record,
    allocation_from_counter,
    bundle_columns,
    bundle_lanes,
    code_sizes,
    lane_column,
    members,
    nonempty_mask,
    rotation_column,
    size_code_table,
    size_codes,
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


def level_keys(exponent_table: tuple[int | None, ...]) -> tuple[int, ...]:
    """Exact order keys of a table of level values: each exponent
    negated, and zero one below the least of those keys."""
    exponents = set(exponent_table) - {None}
    key = {e: -e for e in exponents}
    key[None] = -1 - max(exponents, default=0)
    return tuple(map(key.__getitem__, exponent_table))


def profile_value_keys(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Per-agent 256-entry tables of exact order keys for the profile's kind.

    Keys preserve the exact value order: ranks for ordinal profiles,
    level_keys for level values, and the integer coverage values
    themselves.
    """
    if profile.kind == "ordinal":
        return profile.ordinal.rank_tables
    if profile.kind == "coverage":
        return profile.coverage.value_tables  # type: ignore[union-attr]
    return tuple(map(level_keys, profile.subadditive.exponent_tables))  # type: ignore[union-attr]


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


def _allocation_goods(counter: int) -> tuple[tuple[int, ...], ...]:
    """The goods of each bundle of the allocation with that counter, read
    off core's bundle columns."""
    return tuple(members(column[counter]) for column in bundle_columns())


def _pattern_key(pattern: tuple[int, int, int]) -> str:
    return f"({pattern[0]},{pattern[1]},{pattern[2]})"


def _pattern_breakdown(prefix: str, codes: Iterable[int]) -> dict[str, int]:
    """Allocations counted by their bundle sizes, given as size codes, as
    breakdown entries."""
    return {f"{prefix}{_pattern_key(code_sizes(code))}": n for code, n in Counter(codes).items()}


# ---------------------------------------------------------------------------
# Allocation-universe scanning
#
# Agent i is content toward another bundle B, up to any one good, exactly
# when key_i[X_i] >= W_i[B], where W_i[B] is the largest key of a one-good
# reduction of B.  The status column and the maxima are computed on
# dense keys in lane columns, as the module docstring sets out.  The
# maxima fold two lane integers with HIGH, holding 0x0100 in every lane:
# for lane bytes a and b, a + HIGH - b lies in [1, 511], so no borrow
# crosses a lane, and bit 8 of the lane is exactly a >= b.

# The other agents of agent 0, 1 and 2, in ascending order.
_OTHER_AGENTS = ((1, 2), (0, 2), (0, 1))

# A bytes.translate table: a status byte to 1 exactly when the allocation
# is EFX.
_EFX = bytes(status == 2 for status in range(256))

# A bytes.translate table from a lane's envy code (2 when agent 0 envies,
# plus 1 when agent 1 or 2 does) to the status byte.
_STATUS = bytes((2, 1, 0, 0)) + bytes(252)

# Status 0 to the flag 0x80, which no size code reaches, and the flagged
# bytes, for deleting the allocations that agent 0 finds infeasible.
_INFEASIBLE0 = b"\x80" + bytes(255)
_FLAGGED = bytes(range(0x80, 0x100))


# The bits of one block of the reduction columns: a lane per bundle.
_BLOCK_BITS = 16 * len(ALL_BUNDLES)


def _lanes(pattern: bytes, count: int) -> int:
    """The lane integer of a pattern of bytes repeated count times."""
    return int.from_bytes(pattern * count, "big")


def _dense_keys(table: tuple[int, ...]) -> tuple[list[int], bytes]:
    """(the table's distinct keys in ascending order, each bundle's key as
    its index there)."""
    values = sorted(set(table))
    return values, bytes(map(dict(zip(values, range(len(values)))).__getitem__, table))


@lru_cache(maxsize=1)
def _reduction_columns() -> tuple[bytes, int]:
    """The one-good reductions of the 256 bundles as one lane column of
    8 blocks of 256 lanes, good 0's first, where lane B of good g's block
    holds B - g; and a mask with 0x00FF in the lanes whose bundle holds g,
    0 in the others."""
    identity = int.from_bytes(lane_column(bytes(ALL_BUNDLES)), "big")
    index, members = b"", 0
    for g in GOODS:
        bit = 1 << g
        # Lane B is 1 when B holds g: runs of bit bundles without g, then
        # bit bundles with it.
        holds = _lanes(b"\0\0" * bit + b"\0\1" * bit, len(ALL_BUNDLES) // (2 * bit))
        index += (identity - bit * holds).to_bytes(_BLOCK_BITS // 8, "big")
        members = members << _BLOCK_BITS | holds * 0xFF
    return index, members


def _dense_maxima(dense: bytes) -> bytes:
    """Each bundle's largest dense key over its one-good reductions, and
    0, the least, for the empty bundle.  One translate reads every
    reduction's key; the mask clears each block's lanes whose bundle lacks
    the good (and the pad bytes); three halvings then fold the 8 blocks
    lane by lane, keeping the larger lane of each pair."""
    index, members = _reduction_columns()
    lanes = int.from_bytes(index.translate(dense), "big") & members
    # Lanes past the narrower operands of the later halvings are 0 in both
    # halves, and stay 0.
    high = _lanes(b"\1\0", 4 * len(ALL_BUNDLES))
    for blocks in (4, 2, 1):
        width = blocks * _BLOCK_BITS
        first, second = lanes >> width, lanes & ((1 << width) - 1)
        first_wins = ((first + high - second) & high) >> 8
        lanes = second ^ ((first ^ second) & first_wins * 0xFF)
    return lanes.to_bytes(_BLOCK_BITS // 8, "big")[1::2]


@lru_cache(maxsize=4)
def _reduction_maxima(keys: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """W_i[B] = max over goods g in B of keys[i][B - g], per agent, read
    back from the dense maxima.

    The empty bundle has no reduction; its entry is the table's minimum,
    which never blocks.  The cache is small and bounded: a template run
    never repeats a profile.
    """
    maxima = []
    for table in keys:
        values, dense = _dense_keys(table)
        maxima.append(tuple(map(values.__getitem__, _dense_maxima(dense))))
    return tuple(maxima)


@lru_cache(maxsize=3)
def _status_column(keys: tuple[tuple[int, ...], ...]) -> bytes:
    """Each allocation's EFX status under the key tables as one byte, in
    counter order: 0 when agent 0 envies another bundle up to one good, 1
    when only agent 1 or 2 does, and 2 when nobody does.  The cache holds
    the columns of the three built-in kinds.

    Per agent i, the lane integer LOW - key_i[X_i] plus W_i[X_j] has bit 8
    set in a lane exactly when key_i[X_i] < W_i[X_j], all on dense keys.
    The pad bytes translate to the dense key of the empty bundle, which
    the AND with LOW clears, and to its dense maximum, 0."""
    lanes = bundle_lanes()
    low, high = _lanes(b"\0\xff", N_ALLOCATIONS), _lanes(b"\1\0", N_ALLOCATIONS)
    envy = []
    for agent, table in enumerate(keys):
        dense = _dense_keys(table)[1]
        maxima = _dense_maxima(dense)
        slack = low - (int.from_bytes(lanes[agent].translate(dense), "big") & low)
        bits = 0
        for other in _OTHER_AGENTS[agent]:
            bits |= int.from_bytes(lanes[other].translate(maxima), "big") + slack
        envy.append(bits & high)
    code = envy[0] >> 7 | (envy[1] | envy[2]) >> 8
    return code.to_bytes(2 * N_ALLOCATIONS, "big")[1::2].translate(_STATUS)


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

    return tuple(starmap(deficit, zip(*bundle_columns())))


# --- single allocations ------------------------------------------------------


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
    return tuple(Witness(allocation=_allocation_goods(c)) for c in counters)


# --- no-EFX ----------------------------------------------------------------


def verify_no_efx(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """Scan all 6561 allocations; pass means none is EFX.

    A witness is an EFX allocation (a counterexample to the claim).  The
    breakdown counts allocations feasible for agent 0 by size pattern and
    records the total EFX count.  Both are read off the status column:
    the size codes of the infeasible allocations are flagged and deleted
    in one translate, and Counter tallies the rest.
    """
    column = _status_column(profile_value_keys(profile))
    efx_count = column.count(2)
    efx = compress(range(N_ALLOCATIONS), column.translate(_EFX))
    flagged = int.from_bytes(size_codes(), "big") | int.from_bytes(column.translate(_INFEASIBLE0), "big")
    feasible0 = flagged.to_bytes(N_ALLOCATIONS, "big").translate(None, _FLAGGED)
    return _report(
        claim=f"no_efx_{profile.kind}",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not efx_count,
        witnesses=_allocation_witnesses(islice(efx, max(witness_limit, 0))),
        breakdown={"efx_allocations": efx_count, **_pattern_breakdown("feasible0", feasible0)},
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
    nonempty = nonempty_mask()
    within_slack = map(le, compress(_deficits(profile_value_keys(profile)), nonempty), repeat(slack))
    holds = list(compress(compress(range(N_ALLOCATIONS), nonempty), within_slack))
    return _report(
        claim=f"no_alpha_efx({alpha})",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not holds,
        witnesses=_allocation_witnesses(holds[: max(witness_limit, 0)]),
        breakdown={
            "alpha_efx_allocations": len(holds),
            **_pattern_breakdown("alpha_efx", map(size_codes().__getitem__, holds)),
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
    argmin = list(compress(range(N_ALLOCATIONS), map(eq, deficits, repeat(d_star))))
    return DeficitProfile(
        d_star=d_star,
        argmin_counters=tuple(argmin[: max(argmin_limit, 0)]),
        argmin_count=len(argmin),
        min_deficit_all_nonempty=min(compress(deficits, nonempty_mask())),
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
    keys = level_keys(exponent_table)
    exponent = dict(zip(keys, exponent_table)).__getitem__
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


@lru_cache(maxsize=1)
def _first_pair_candidates() -> tuple[tuple[int, ...], tuple[Bundle, ...]]:
    """Counters, and first bundles, of the allocations whose first bundle
    is a pair and whose other two bundles hold at least two goods each."""
    shape = size_code_table(lambda first, second, third: first == 2 and second >= 2 and third >= 2)
    candidates = size_codes().translate(shape)
    return tuple(compress(range(N_ALLOCATIONS), candidates)), tuple(compress(bundle_columns()[0], candidates))


def verify_lemma_first_pair(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """When the first bundle is a pair and no other bundle is smaller than
    a pair, agent-0 feasibility confines the pair's type support to
    Ax, Ay, BC, By, Cy."""
    column = _status_column(profile_value_keys(profile))
    counters, firsts = _first_pair_candidates()
    statuses = list(map(column.__getitem__, counters))
    labels = list(map(profile.ordinal.support_labels.__getitem__, compress(firsts, statuses)))
    violations = [
        counter
        for counter, label in zip(compress(counters, statuses), labels)
        if label not in ALLOWED_FIRST_PAIR_LABELS
    ]
    label_counts = Counter(labels)
    return _report(
        claim="first_pair_restriction",
        universe=len(counters),
        checked=len(counters),
        passed=not violations,
        witnesses=_allocation_witnesses(violations[: max(witness_limit, 0)]),
        breakdown={f"feasible_first_pair[{label}]": n for label, n in label_counts.items()},
    )


_SIZE_CLASSES = ("small_first", "(2,2,4)", "(2,3,3)")


def _size_class(*sizes: int) -> int:
    """The class of ordered bundle sizes, as its index in _SIZE_CLASSES
    plus one; 0 for sizes in no class."""
    if sizes[0] <= 1:
        return 1
    key = _pattern_key(sizes)
    return _SIZE_CLASSES.index(key) + 1 if key in _SIZE_CLASSES else 0


_SIZE_CLASS = size_code_table(_size_class)


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
    efx = _status_column(profile_value_keys(profile)).translate(_EFX)
    classes = size_codes().translate(_SIZE_CLASS)
    efx_per_class = Counter(compress(classes, efx))

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
    total_universe = 0
    for index, name in enumerate(_SIZE_CLASSES, 1):
        universe, efx_count = classes.count(index), efx_per_class[index]
        total_universe += universe
        breakdown[f"universe[{name}]"] = universe
        breakdown[f"efx[{name}]"] = efx_count
        if universe != expected_universe[name] or efx_count:
            passed = False
        if efx_count:
            in_class = [counter for counter in compress(range(N_ALLOCATIONS), efx) if classes[counter] == index]
            witness_counters += in_class[: max(0, witness_limit - len(witness_counters))]
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

    The image of (X0, X1, X2) is (perm(X1), perm(X2), perm(X0)), whose
    counter core's rotation column gives.  The rotation permutes the
    counters, so the EFX mask equals its image, the mask read at each
    rotated counter, exactly when every EFX counter rotates to an EFX
    counter: the claim passes at once with no EFX allocation, and else
    after a walk over the EFX counters.  Mismatches are listed, in
    counter order, only when that walk fails.  A witness names its own
    direction: EFX and not after rotation, or the reverse."""
    column = _status_column(profile_value_keys(profile))
    efx = column.translate(_EFX)
    mismatches = []
    if 1 in efx:
        rotation = rotation_column(profile.ordinal.bundle_images[1])
        if not all(map(efx.__getitem__, compress(rotation, efx))):
            mismatches = list(compress(range(N_ALLOCATIONS), map(ne, efx, map(efx.__getitem__, rotation))))
    witnesses = []
    for c in mismatches[: max(witness_limit, 0)]:
        lhs, rhs = ("EFX", "not EFX after rotation") if efx[c] else ("not EFX", "EFX after rotation")
        witnesses.append(Witness(allocation=_allocation_goods(c), lhs=lhs, rhs=rhs))
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
    the goods outside A and S.  The universe's columns X0, X1 and the size
    of X2 list exactly those pairs and counts, for either j.
    """
    firsts, seconds, thirds = bundle_columns()
    spare = thirds.translate(BUNDLE_SIZES)
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
        for counter, allocation in enumerate(zip(*bundle_columns())):
            for i in breaking:
                rank_table, key_table = ranks[i], keys[i]
                own = allocation[i]
                own_rank, own_key = rank_table[own], key_table[own]
                for j in _OTHER_AGENTS[i]:
                    for g in members(allocation[j]):
                        reduced = allocation[j] ^ (1 << g)
                        if rank_table[reduced] > own_rank and key_table[reduced] <= own_key:
                            yield Witness(
                                allocation=_allocation_goods(counter),
                                agent_i=i,
                                agent_j=j,
                                good_g=g,
                                lhs=display_value(cardinal_profile, i, own),
                                rhs=display_value(cardinal_profile, i, reduced),
                            )

    passed, witnesses = _first_violations(violations(), witness_limit) if breaking else (True, ())
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
