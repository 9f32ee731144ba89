"""Exhaustive claim checkers producing re-verifiable verdict reports.

Every checker decides a claim over a whole finite universe (the 6561
allocations, the 256 bundles, or pairs thereof) and returns a
VerdictReport whose witnesses a caller can re-evaluate standalone.  A
witness limit below zero gives no witnesses, as zero does.

Every allocation claim reads columns in counter order.  Two belong to a
set of key tables and are cached per set, both built from per-agent
reduction maxima W_i[B], the largest key of a one-good reduction of B.
Each 256-entry table is reduced once, into a cached record: its distinct
keys, its dense keys (each key's index among the distinct keys, one byte
that keeps their order) and its dense maxima.  The status column (each
allocation's EFX status as one byte) is built on dense keys: core's byte
columns X0, X1 and X2, translated through an agent's dense keys or
maxima and read as integers, give the lane integers K_i[X_i] and
W_i[X_j].  The lanes are one byte wide when every dense key is below
0x80, that is for tables of at most 128 distinct keys, which every
template gives; then with LOW holding 0x7F in every lane, each lane of
W_i[X_j] + LOW - K_i[X_i] lies in [0, 254], so no borrow crosses a lane
and bit 7 of the lane is exactly K_i[X_i] < W_i[X_j].  Wider tables take
two-byte lanes, each byte column widened over a zero pad byte, with LOW
0x7FFF and bit 15.  The maxima come the same way, core's reduction index
translated once and its 8 blocks folded lane by lane with core's
lane_max, so neither runs Python code per allocation or per bundle.  The
deficit column (each allocation's largest envy gap) needs real key
differences, so it runs in lanes as wide as the key spread needs
(core's sum_lane_width): six translated terms folded with lane_max.
Its tuple, histogram, d*, argmin and nonempty minimum are read off it
once per cached column, and the scaled scan's slack test is one lane
comparison.  Level keys are anchored at zero, so a derived subadditive
profile reads the ordinal kind's columns.  The others are core's
universe columns, which no valuation changes: size codes, size code
masks, the nonempty mask and the rotation column.  Claims read them with
C-level operations and never iterate over the allocations they skip:
witnesses are found by bytes.find, counts by bytes.count, and size
breakdowns by popcounts of a column packed into one bit per allocation
and ANDed with each size code's mask.  The first pair ANDs the status
column with a cached column of candidate first pairs, cyclic symmetry
checks that the rotation column sends every EFX counter to an EFX
counter, and alpha-star and the scaled scan read the deficit kernel
under the nonempty mask.  A 6561-allocation universe gains nothing from
a process pool.  This module owns every EFX read: the scans, and is_efx
and strong_envy_witness, which walk one allocation's triples on the rank
tables.

Every property check decides a passing table by one whole-table
comparison, and walks only a failing table, for its witnesses in scan
order: monotonicity compares every bundle's dense key with its dense
reduction maximum in lanes, support collapse compares the table with
itself read at each support class's representative, submodularity
compares both sides of the 1792 local sums in lanes, and strict
consistency compares the keys of the sorted distinct (rank, key) pairs
with the table's distinct keys.  Subadditivity decides its exact per-row
bound for all 255 rows at once in lanes (superset maxima, then one gap
comparison against the six-entry gap table), so a table whose every row
the bound skips passes with no pair visited.  The walks stop once the
verdict is settled and the witness list is full, and a check's checked
field counts the whole universe the verdict covers, not the pairs
actually visited.  Strict-order transfer follows the same pattern: an
agent whose value keys keep strict rank order over all bundles cannot
break transfer, so only the agents that do not are walked allocation by
allocation, and the universe is not walked at all when every agent
keeps it.  Its
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
from itertools import accumulate, chain, compress, islice
from operator import gt, itemgetter, ne

from .cardinal import (
    PAIR_GAP_LIMIT,
    ApproxFactor,
    CoverageProfile,
    LevelValue,
    SubadditiveProfile,
    build_coverage,
    build_subadditive,
    level_power_decimal,
    level_slack,
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
    code_sizes,
    holds_columns,
    lane_column,
    lane_flags,
    lane_max,
    lane_table,
    lane_tops,
    lane_translate,
    lane_values,
    members,
    nonempty_mask,
    reduction_index,
    rotation_column,
    size_code_table,
    size_codes,
    size_tally,
    submodular_index,
    sum_lane_width,
    superset_max,
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
    """Exact order keys of a table of level values, anchored at zero: zero
    gets 0 and q**e gets 1 + max_e - e, so one key step is one power of
    the base.  For exponents top_rank - rank with least nonempty rank 1,
    as build_subadditive derives them, the keys are the ranks."""
    exponents = set(exponent_table) - {None}
    top = max(exponents, default=0)
    key = {e: 1 + top - e for e in exponents}
    key[None] = 0
    return tuple(map(key.__getitem__, exponent_table))


@lru_cache(maxsize=2)
def _level_key_tables(exponent_tables: tuple[tuple[int | None, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The level keys of every agent's exponent table, built once per set
    of tables.  A warm process serving the built-in commands reads one
    set; the cache also keeps one other, so a payload read between them
    does not evict the built-in's."""
    return tuple(map(level_keys, exponent_tables))


def profile_value_keys(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Per-agent 256-entry tables of exact order keys for the profile's kind.

    Keys preserve the exact value order: ranks for ordinal profiles,
    level_keys for level values, and the integer coverage values
    themselves.  A derived subadditive profile's keys equal its rank
    tables, so every column cached per key table serves both kinds; they
    are built once per set of exponent tables (_level_key_tables).
    """
    if profile.kind == "ordinal":
        return profile.ordinal.rank_tables
    if profile.kind == "coverage":
        return profile.coverage.value_tables  # type: ignore[union-attr]
    return _level_key_tables(profile.subadditive.exponent_tables)  # type: ignore[union-attr]


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


@lru_cache(maxsize=1)
def _bundle_members() -> tuple[tuple[int, ...], ...]:
    """The goods of every bundle, in ascending order."""
    return tuple(map(members, ALL_BUNDLES))


def _allocation_goods(counter: int) -> tuple[tuple[int, ...], ...]:
    """The goods of each bundle of the allocation with that counter, read
    off core's bundle columns."""
    goods = _bundle_members()
    return tuple(goods[column[counter]] for column in bundle_columns())


def _pattern_key(pattern: tuple[int, int, int]) -> str:
    return f"({pattern[0]},{pattern[1]},{pattern[2]})"


@lru_cache(maxsize=2)
def _pattern_keys(prefix: str) -> tuple[str, ...]:
    """The breakdown key of every size code: the prefix, then the sizes."""
    return tuple(prefix + _pattern_key(code_sizes(code)) for code in range((N_GOODS + 1) ** 2))


def _pattern_breakdown(prefix: str, kept: bytes) -> dict[str, int]:
    """The allocations whose byte in kept is not 0, counted by their
    bundle sizes (core's size_tally), as breakdown entries."""
    keys = _pattern_keys(prefix)
    return {keys[code]: count for code, count in size_tally(kept).items()}


def _first_counters(column: bytes, byte: int, limit: int) -> list[int]:
    """The first limit counters whose byte in column is byte, in counter
    order: each found by one bytes.find from the counter after the last,
    so the allocations in between are skipped in C."""
    found: list[int] = []
    at = -1
    while len(found) < limit and (at := column.find(byte, at + 1)) >= 0:
        found.append(at)
    return found


def _where(kept: bytes, column: bytes) -> bytes:
    """column's bytes at the allocations whose byte in kept is not 0, and 0
    at the others: one AND of the two read as integers."""
    mask = int.from_bytes(kept.translate(_NONZERO), "big")
    return (int.from_bytes(column, "big") & mask).to_bytes(N_ALLOCATIONS, "big")


# ---------------------------------------------------------------------------
# Allocation-universe scanning
#
# Agent i is content toward another bundle B, up to any one good, exactly
# when key_i[X_i] >= W_i[B], where W_i[B] is the largest key of a one-good
# reduction of B.  The status column and the maxima are computed on
# dense keys in lane columns, as the module docstring sets out.

# The other agents of agent 0, 1 and 2, in ascending order.
_OTHER_AGENTS = ((1, 2), (0, 2), (0, 1))

# A bytes.translate table: a status byte to 1 exactly when the allocation
# is EFX.
_EFX = bytes(status == 2 for status in range(256))

# A bytes.translate table from a lane's envy code (2 when agent 0 envies,
# plus 1 when agent 1 or 2 does) to the status byte.
_STATUS = bytes((2, 1, 0, 0)) + bytes(252)

# A bytes.translate table from a byte to 0xFF when it is not 0, else 0: a
# column as a byte mask.
_NONZERO = b"\0" + b"\xff" * 255


def _lane_width(dense: bytes) -> int:
    """The lane width of a dense key table: one byte when every key is
    below 0x80, the top bit of a byte lane, else two bytes."""
    return 1 if max(dense) < 0x80 else 2


@lru_cache(maxsize=2)
def _reduction_columns(width: int) -> tuple[bytes, int]:
    """core's reduction index, 8 blocks of 256 bundles; and a lane integer
    over the same lanes, each lane of width bytes, with every bit set in
    the lanes whose bundle holds the block's good and 0 in the others."""
    holds = int.from_bytes(lane_column(b"".join(holds_columns()), width), "big")
    return reduction_index(), holds * ((1 << 8 * width) - 1)


@lru_cache(maxsize=6)
def _key_reduction(table: tuple[int, ...]) -> tuple[tuple[int, ...], bytes, bytes]:
    """(the table's distinct keys in ascending order, each bundle's key as
    its index there, each bundle's largest dense key over its one-good
    reductions, 0 for the empty bundle).  One translate reads every
    reduction's key; the mask clears each block's lanes whose bundle lacks
    the good; three halvings then fold the 8 blocks with core's lane_max,
    at the table's own lane width.  A dense key is below 256, so the
    maxima bytes are the same at any width.  The cache holds the six
    tables of the built-in kinds: the ranks, which level keys equal, and
    the coverage values."""
    values = tuple(sorted(set(table)))
    dense = bytes(map(dict(zip(values, range(len(values)))).__getitem__, table))
    width = _lane_width(dense)
    index, holds = _reduction_columns(width)
    lanes = int.from_bytes(lane_column(index.translate(dense), width), "big") & holds
    # Lanes past the narrower operands of the later halvings are 0 in both
    # halves, and stay 0.
    flags = lane_flags(4 * len(ALL_BUNDLES), width)
    for blocks in (4, 2, 1):
        shift = blocks * len(ALL_BUNDLES) * 8 * width
        lanes = lane_max(lanes >> shift, lanes & ((1 << shift) - 1), flags, width)
    return values, dense, lanes.to_bytes(len(ALL_BUNDLES) * width, "big")[width - 1 :: width]


@lru_cache(maxsize=2)
def _status_column(keys: tuple[tuple[int, ...], ...]) -> bytes:
    """Each allocation's EFX status under the key tables as one byte, in
    counter order: 0 when agent 0 envies another bundle up to one good, 1
    when only agent 1 or 2 does, and 2 when nobody does.  The cache holds
    the two columns of the built-in kinds: the ranks, which the ordinal
    and subadditive kinds share, and the coverage values.

    The three agents share one lane width, the widest their dense keys
    need.  Per agent i, the lane integer LOW - key_i[X_i] plus W_i[X_j],
    LOW holding the top bit less one in every lane, has the top bit set
    in a lane exactly when key_i[X_i] < W_i[X_j], all on dense keys."""
    columns = bundle_columns()
    reductions = list(map(_key_reduction, keys))
    width = max(_lane_width(dense) for _, dense, _ in reductions)
    top = 8 * width - 1
    flags = lane_flags(N_ALLOCATIONS, width)
    low = flags - (flags >> top)
    envy = []
    for agent, (_, dense, maxima) in enumerate(reductions):
        slack = low - int.from_bytes(lane_column(columns[agent].translate(dense), width), "big")
        bits = 0
        for other in _OTHER_AGENTS[agent]:
            bits |= int.from_bytes(lane_column(columns[other].translate(maxima), width), "big") + slack
        envy.append(bits & flags)
    code = envy[0] >> top - 1 | (envy[1] | envy[2]) >> top
    return code.to_bytes(width * N_ALLOCATIONS, "big")[width - 1 :: width].translate(_STATUS)


@lru_cache(maxsize=1)
def _deficits(keys: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(the lane integer of each allocation's deficit under the key tables,
    in counter order, and its lane width).  The deficit is max(0, max over
    agents i and bundles j != i of W_i[X_j] - key_i[X_i]), the largest key
    gap by which an agent envies another bundle up to one good, and it is
    0 exactly when the allocation is EFX.  The cache holds the ranks,
    which alpha-star and the scaled scan on level keys read.

    Each agent's keys and reduction maxima are shifted by the agent's
    least key into [0, R], R the largest spread of the three tables, and
    the lanes are sum_lane_width(R) bytes wide.  The lane integer of
    W_i[X_j] + (R - key_i[X_i]), a translate of core's bundle columns per
    term, lies in [0, 2R]; core's lane_max folds the six terms, and the
    deficit is the fold's max(0, v - R), one more lane_max.  The same code
    serves every width, from the ranks' one byte to the 13-byte lanes of
    top_rank 10**30."""
    columns = bundle_columns()
    reductions = list(map(_key_reduction, keys))
    spread = max(values[-1] - values[0] for values, _, _ in reductions)
    width = sum_lane_width(spread)
    flags = lane_flags(N_ALLOCATIONS, width)
    worst = 0
    for agent, (table, (values, _, maxima)) in enumerate(zip(keys, reductions)):
        low = values[0]
        slack = lane_translate(columns[agent], lane_table([spread + low - key for key in table], width), width)
        reduced = lane_table([values[m] - low for m in maxima], width)
        for other in _OTHER_AGENTS[agent]:
            worst = lane_max(worst, lane_translate(columns[other], reduced, width) + slack, flags, width)
    floor = spread * (flags >> 8 * width - 1)
    return lane_max(worst, floor, flags, width) - floor, width


def _at_most(lanes: int, width: int, bound: int) -> bytes:
    """1 for each allocation whose lane of a deficit column is at most
    bound, else 0: one lane comparison.  A deficit lane lies below half
    the top bit, so a bound clipped to the top bit less one decides the
    same."""
    top = 8 * width - 1
    flags = lane_flags(N_ALLOCATIONS, width)
    bound = min(bound, (1 << top) - 1) * (flags >> top)
    return lane_tops(bound + flags - lanes, N_ALLOCATIONS, width)


# --- single allocations ------------------------------------------------------


def is_efx(allocation: Allocation, profile: OrdinalProfile) -> bool:
    return strong_envy_witness(allocation, profile) is None


def strong_envy_witness(
    allocation: Allocation, profile: OrdinalProfile
) -> tuple[int, int, int] | None:
    """Lexicographically first (i, j, g) with agent i preferring bundle j
    minus good g over their own bundle; None when the allocation is EFX.
    The triples are walked in that order on the rank tables."""
    for i, table in enumerate(profile.rank_tables):
        own = table[allocation[i]]
        for j in _OTHER_AGENTS[i]:
            bundle = allocation[j]
            for g in members(bundle):
                if table[bundle ^ (1 << g)] > own:
                    return i, j, g
    return None


def _allocation_witnesses(counters: Iterable[int]) -> tuple[Witness, ...]:
    return tuple(Witness(allocation=_allocation_goods(c)) for c in counters)


# --- no-EFX ----------------------------------------------------------------


def verify_no_efx(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """Scan all 6561 allocations; pass means none is EFX.

    A witness is an EFX allocation (a counterexample to the claim).  The
    breakdown counts allocations feasible for agent 0 by size pattern and
    records the total EFX count.  All three are read off the status
    column: the witnesses by bytes.find, the count by bytes.count, and
    the breakdown by popcounts of its nonzero bytes (core's size_tally).
    """
    column = _status_column(profile_value_keys(profile))
    efx_count = column.count(2)
    return _report(
        claim=f"no_efx_{profile.kind}",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not efx_count,
        witnesses=_allocation_witnesses(_first_counters(column, 2, witness_limit)),
        breakdown={"efx_allocations": efx_count, **_pattern_breakdown("feasible0", column)},
    )


# --- no scaled-EFX ----------------------------------------------------------


def verify_no_alpha_efx(
    profile: Profile, alpha: ApproxFactor, witness_limit: int = 10
) -> VerdictReport:
    """Pass when no allocation satisfies the alpha-scaled condition
    value(own) >= alpha * value(other minus any one good), decided exactly.

    The allocations that satisfy it are those with no empty bundle whose
    deficit under the level keys is at most level_slack(alpha), the
    largest exponent gap d with q**d >= alpha.  A key step is one power
    of the base, so key gaps are exponent gaps: an agent holding a
    nonempty bundle meets the condition against a nonempty reduction
    exactly when the key gap is at most the slack, and always against
    the empty reduction, whose key is the lowest.  For a derived profile
    the level keys are the ranks, so this reads alpha-star's deficit
    column.  An agent holding the empty bundle, worth nothing, meets it
    only when every reduction it faces is worth nothing.  But the other
    two bundles then share all 8 goods, so one of them holds at least 4,
    and each of its one-good reductions is a nonempty bundle, worth more
    than nothing.  That last step needs a value for every nonempty
    bundle, so a payload that gives one a zero value is refused.

    The slack test is one lane comparison on the deficit column, ANDed
    with the nonempty mask; the witnesses and the size breakdown are read
    off the resulting bytes.
    """
    if profile.kind != "subadditive":
        raise ValueError(f"scaled verification needs a subadditive profile, got {profile.kind}")
    if any(None in table[1:] for table in profile.subadditive.exponent_tables):  # type: ignore[union-attr]
        raise ValueError("scaled verification needs a positive level value on every nonempty bundle")
    within_slack = _at_most(*_deficits(profile_value_keys(profile)), level_slack(alpha))
    holds = _where(nonempty_mask(), within_slack)
    count = holds.count(1)
    return _report(
        claim=f"no_alpha_efx({alpha})",
        universe=N_ALLOCATIONS,
        checked=N_ALLOCATIONS,
        passed=not count,
        witnesses=_allocation_witnesses(_first_counters(holds, 1, witness_limit)),
        breakdown={"alpha_efx_allocations": count, **_pattern_breakdown("alpha_efx", holds)},
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


@lru_cache(maxsize=1)
def _deficit_profile(keys: tuple[tuple[int, ...], ...]) -> DeficitProfile:
    """The deficit profile of a key set with every argmin counter, read
    off the deficit column once per cached column: the tuple of deficits
    from its lanes, the argmin by one lane comparison with d*."""
    lanes, width = _deficits(keys)
    deficits = lane_values(lanes, N_ALLOCATIONS, width)
    histogram = Counter(deficits)
    d_star = min(histogram)
    argmin = tuple(compress(range(N_ALLOCATIONS), _at_most(lanes, width, d_star)))
    return DeficitProfile(
        d_star=d_star,
        argmin_counters=argmin,
        argmin_count=len(argmin),
        min_deficit_all_nonempty=min(compress(deficits, nonempty_mask())),
        histogram=tuple(sorted(histogram.items())),
        deficits=deficits,
    )


def compute_deficit_profile(profile: Profile, argmin_limit: int = 10) -> DeficitProfile:
    """Rank deficit of every allocation, read from the deficit kernel on
    the rank tables, with the global minimum and its first argmin_limit
    attaining allocations in counter order."""
    found = _deficit_profile(profile.ordinal.rank_tables)
    return found.replace(argmin_counters=found.argmin_counters[: max(argmin_limit, 0)])


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


def _monotone(key_table: tuple[int, ...]) -> bool:
    """Whether no one-good extension has a lower key, that is whether
    every bundle's dense key is at least its dense reduction maximum: one
    lane comparison, as core sets out (own + flags - maximum has every
    top bit set exactly when every own >= maximum)."""
    _, dense, dense_maxima = _key_reduction(key_table)
    width = _lane_width(dense)
    own = int.from_bytes(lane_column(dense, width), "big")
    maxima = int.from_bytes(lane_column(dense_maxima, width), "big")
    flags = lane_flags(len(ALL_BUNDLES), width)
    return (own + flags - maxima) & flags == flags


def check_monotone(
    key_table: tuple[int, ...],
    claim: str,
    display: Callable[[Bundle], int | str] | None = None,
    witness_limit: int = 10,
) -> VerdictReport:
    """Adding any good never lowers the value (checked on order keys).

    display gives a bundle's value as a witness shows it; by default the
    key itself.  One lane comparison decides a passing table; a failing
    one is walked pair by pair for its witnesses in scan order.  checked
    counts every (bundle, good) pair.
    """
    show = display or key_table.__getitem__

    def violations() -> Iterator[Witness]:
        for bundle in ALL_BUNDLES:
            base = key_table[bundle]
            for g in GOODS:
                extended = bundle | (1 << g)
                if key_table[extended] < base:
                    yield Witness(bundle_s=members(bundle), good_g=g, lhs=show(extended), rhs=show(bundle))

    if _monotone(key_table):
        passed, witnesses = True, ()
    else:
        passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_MONOTONE_PAIRS, N_MONOTONE_PAIRS, passed, witnesses, {})


@lru_cache(maxsize=128)
def _pair_sum_sign(e_first: int | None, e_second: int | None, e_union: int | None) -> int:
    """Sign of q**e_first + q**e_second - q**e_union, None the value zero,
    for exponents whose least is 0 (see _level_sum_sign)."""
    values = [LevelValue.zero() if e is None else LevelValue.power(e) for e in (e_first, e_second)]
    target = LevelValue.zero() if e_union is None else LevelValue.power(e_union)
    return level_sum_compare(values, target)


def _level_sum_sign(e_first: int | None, e_second: int | None, e_union: int | None) -> int:
    """Sign of q**e_first + q**e_second - q**e_union, None the value zero.
    Dividing every power by q**least, the least exponent's, leaves the
    sign, so _pair_sum_sign is keyed by the exponent gaps over the least:
    a suite at every top_rank reads the same entries."""
    least = min((e for e in (e_first, e_second, e_union) if e is not None), default=0)
    return _pair_sum_sign(*(None if e is None else e - least for e in (e_first, e_second, e_union)))


def _gap_bounds(width: int, positive_least: bool) -> bytes:
    """The row bound of check_subadditive as a lane table over the key
    gap d = U - key(S), capped at 7: the least second gap U - m that
    leaves room for a violation, where U is the largest key over the
    supersets of S and m the least key of a nonempty bundle.  A gap of 0
    leaves none; d from 1 to 6 leaves none up to PAIR_GAP_LIMIT[d] when
    m is a positive value, and every gap from 7 on, or with m zero,
    leaves room."""
    none = (1 << 8 * width - 1) - 1
    bounds = [PAIR_GAP_LIMIT[d] + 1 if positive_least else 0 for d in range(1, 7)]
    return lane_table([none, *bounds, 0], width)


def _unbounded_rows(keys: tuple[int, ...]) -> bytes:
    """1 for each bundle S whose row of pairs the exact bound of
    check_subadditive cannot skip, else 0, from level keys.  With
    a = key(S), U the largest key over the supersets of S and m the least
    key of a nonempty bundle, the bound is the sign of v(a) + v(m) - v(U),
    v(k) the value keyed k, read off the gaps d = U - a and e = U - m: a
    key step is one power of the base, and m <= a <= U.  So
    a row is skipped exactly when e lies below _gap_bounds at d.  Every
    step runs in lanes of sum_lane_width(max key): the superset maxima
    are core's superset_max, d is capped at 7 with one lane_max, and the
    bound is one lane comparison."""
    least = min(keys[1:])
    width = sum_lane_width(max(keys))
    flags = lane_flags(len(ALL_BUNDLES), width)
    ones = flags >> 8 * width - 1
    own = int.from_bytes(lane_table(keys, width), "big")
    greatest = superset_max(own, width)
    gap = greatest - own
    capped = gap + 7 * ones - lane_max(gap, 7 * ones, flags, width)
    capped_gap = capped.to_bytes(len(ALL_BUNDLES) * width, "big")[width - 1 :: width]
    bound = lane_translate(capped_gap, _gap_bounds(width, least > 0), width)
    return lane_tops((bound + flags - (greatest - least * ones) - ones) ^ flags, len(ALL_BUNDLES), width)


def check_subadditive(
    exponent_table: tuple[int | None, ...],
    claim: str,
    witness_limit: int = 10,
) -> VerdictReport:
    """value(S) + value(T) >= value(S union T) over all 65536 bundle pairs,
    each decided exactly from the three exponents by level_sum_compare.

    A pair with an empty side never violates, since values are never
    negative.  Row S is scanned only when value(S) + m < U(S), where m is
    the least value of a nonempty bundle and U(S) the greatest value of a
    superset of S: otherwise every T gives value(S) + value(T) >=
    value(S) + m >= U(S) >= value(S union T).  That bound is decided for
    every row at once, in lanes (_unbounded_rows), so a table whose every
    row it skips passes with no pair visited.  checked counts all 65536
    pairs.
    """
    rows = _unbounded_rows(level_keys(exponent_table))

    def violations() -> Iterator[Witness]:
        for first in compress(ALL_BUNDLES[1:], rows[1:]):
            e_first = exponent_table[first]
            for second in ALL_BUNDLES[1:]:
                e_second, e_union = exponent_table[second], exponent_table[first | second]
                if _level_sum_sign(e_first, e_second, e_union) < 0:
                    yield Witness(
                        bundle_s=members(first),
                        bundle_t=members(second),
                        lhs=f"{LevelValue(e_first)} + {LevelValue(e_second)}",
                        rhs=str(LevelValue(e_union)),
                    )

    passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_BUNDLE_PAIRS, N_BUNDLE_PAIRS, passed, witnesses, {})


def _submodular(value_table: tuple[int, ...]) -> bool:
    """Whether f(S+g) + f(S+h) >= f(S+g+h) + f(S) for every S and goods
    g < h outside S, the local test: chaining the goods of T - S one at a
    time turns it into diminishing returns for every nested S within T,
    so the two agree on any set function.  One lane comparison over
    core's four submodular_index columns, each translated through the
    table shifted into [0, R], in lanes of sum_lane_width(R): each side
    lies in [0, 2R], so lhs + flags - rhs has every top bit set exactly
    when every lhs >= rhs."""
    low = min(value_table)
    width = sum_lane_width(max(value_table) - low)
    table = lane_table([value - low for value in value_table], width)
    with_g, with_h, with_both, base = (lane_translate(column, table, width) for column in submodular_index())
    flags = lane_flags(len(submodular_index()[0]), width)
    return (with_g + with_h + flags - with_both - base) & flags == flags


def check_submodular(
    value_table: tuple[int, ...],
    claim: str,
    witness_limit: int = 10,
) -> VerdictReport:
    """Diminishing returns: for every good g and nested S within T avoiding
    g, the marginal of g on S is at least its marginal on T.

    The local test of _submodular (1792 sums in one lane comparison)
    decides a passing table.  A failing one is enumerated by submask
    iteration over the nested pairs, for its witnesses in scan order.
    checked counts all 8 * 3^7 ordered nested pairs.
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

    if _submodular(value_table):
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


def _keeps_strict_order(rank_table: tuple[int, ...], key_table: tuple[int, ...]) -> bool:
    """Whether every bundle ranked strictly above another has a strictly
    higher key: one whole-table comparison.  It holds exactly when each
    rank's largest key lies below the next rank's smallest, that is when
    the keys of the distinct (rank, key) pairs, sorted, strictly ascend,
    so that they are the table's distinct keys in order."""
    return list(map(itemgetter(1), sorted(set(zip(rank_table, key_table))))) == sorted(set(key_table))


def check_strict_consistency(
    rank_table: tuple[int, ...],
    key_table: tuple[int, ...],
    claim: str,
    display: Callable[[Bundle], int | str] | None = None,
    witness_limit: int = 10,
) -> VerdictReport:
    """A strictly higher rank forces a strictly higher value, over all
    65536 ordered bundle pairs.

    _keeps_strict_order decides a passing table.  In a failing one, row S
    holds a violation exactly when key(S) is at most the largest key of a
    strictly lower rank, a running maximum over the distinct ranks; only
    such rows are scanned, for the witnesses in scan order.  display is
    as for check_monotone.  checked counts all 65536 pairs.
    """
    show = display or key_table.__getitem__

    def violations() -> Iterator[Witness]:
        below = _lower_rank_maxima(rank_table, key_table)
        for first in ALL_BUNDLES:
            rank_first, key_first = rank_table[first], key_table[first]
            if key_first > below[rank_first]:
                continue
            for second in ALL_BUNDLES:
                if rank_first > rank_table[second] and key_first <= key_table[second]:
                    yield Witness(
                        bundle_s=members(first), bundle_t=members(second), lhs=show(first), rhs=show(second)
                    )

    if _keeps_strict_order(rank_table, key_table):
        passed, witnesses = True, ()
    else:
        passed, witnesses = _first_violations(violations(), witness_limit)
    return _report(claim, N_BUNDLE_PAIRS, N_BUNDLE_PAIRS, passed, witnesses, {})


def check_support_collapse(
    value_table: tuple,
    support_labels: tuple[str, ...],
    claim: str,
    witness_limit: int = 10,
    representatives: tuple[Bundle, ...] | None = None,
) -> VerdictReport:
    """The value of a bundle depends only on its type support: each
    bundle is compared with its support class's representative.  The
    table read at the representatives decides a passing table; a failing
    one is walked bundle by bundle for its witnesses in scan order.  A
    suite that checks several tables on the same labels passes their
    support_representatives in, computed once."""
    if representatives is None:
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

    if tuple(map(value_table.__getitem__, representatives)) == value_table:
        passed, witnesses = True, ()
    else:
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
def _first_pair_candidates() -> tuple[int, bytes, bytes]:
    """The candidates are the allocations whose first bundle is a pair and
    whose other two bundles hold at least two goods each.  Returns (their
    number; a column holding each candidate's first bundle as its index
    among the 28 pair bundles plus one, and 0 at every other allocation;
    the 28 pair bundles, ascending)."""
    shape = size_code_table(lambda first, second, third: first == 2 and second >= 2 and third >= 2)
    candidates = size_codes().translate(shape)
    pairs = bytes(bundle for bundle in ALL_BUNDLES if BUNDLE_SIZES[bundle] == 2)
    pair_index = bytes(pairs.find(bundle) + 1 for bundle in ALL_BUNDLES)
    return candidates.count(1), _where(candidates, bundle_columns()[0].translate(pair_index)), pairs


def verify_lemma_first_pair(profile: Profile, witness_limit: int = 10) -> VerdictReport:
    """When the first bundle is a pair and no other bundle is smaller than
    a pair, agent-0 feasibility confines the pair's type support to
    Ax, Ay, BC, By, Cy.

    The status column's nonzero bytes keep the feasible candidates'
    first-pair indices, in one AND.  One translate that deletes the rest
    turns those into label codes, counted per label, and another marks
    the disallowed labels, whose first allocations bytes.find gives."""
    candidates, first_pairs, pairs = _first_pair_candidates()
    feasible = _where(_status_column(profile_value_keys(profile)), first_pairs)
    labels = list(map(profile.ordinal.support_labels.__getitem__, pairs))
    names = list(dict.fromkeys(labels))
    codes = bytes([0, *(names.index(label) + 1 for label in labels)]).ljust(256, b"\0")
    found = feasible.translate(codes, b"\0")
    disallowed = bytes([0, *(label not in ALLOWED_FIRST_PAIR_LABELS for label in labels)]).ljust(256, b"\0")
    violating = feasible.translate(disallowed)
    label_counts = zip(names, map(found.count, range(1, len(names) + 1)))
    return _report(
        claim="first_pair_restriction",
        universe=candidates,
        checked=candidates,
        passed=1 not in violating,
        witnesses=_allocation_witnesses(_first_counters(violating, 1, witness_limit)),
        breakdown={f"feasible_first_pair[{label}]": n for label, n in label_counts if n},
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

    The class column is kept at the EFX allocations, in one AND: each
    class's EFX count is one bytes.count on it, and a failing class's
    witnesses are found by bytes.find.  The class sizes are cross-checked
    against multinomial counts, and the rotation argument's completeness
    (every size multiset of 8 into 3 parts is reachable from one of the
    three classes by rotation) is verified by enumerating all ordered
    size triples.
    """
    efx = _status_column(profile_value_keys(profile)).translate(_EFX)
    classes = size_codes().translate(_SIZE_CLASS)
    efx_classes = _where(efx, classes)

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
        universe, efx_count = classes.count(index), efx_classes.count(index)
        total_universe += universe
        breakdown[f"universe[{name}]"] = universe
        breakdown[f"efx[{name}]"] = efx_count
        if universe != expected_universe[name] or efx_count:
            passed = False
        if efx_count:
            witness_counters += _first_counters(efx_classes, index, witness_limit - len(witness_counters))
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
    breaking = [i for i in range(N_AGENTS) if not _keeps_strict_order(ranks[i], keys[i])]

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
        representatives = support_representatives(ordinal.support_labels)
        for agent in range(N_AGENTS):
            reports.append(
                check_support_collapse(
                    ordinal.rank_tables[agent],
                    ordinal.support_labels,
                    f"support_collapse(rank[{agent}])",
                    witness_limit=witness_limit,
                    representatives=representatives,
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
    representatives = support_representatives(ordinal.support_labels)
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
                representatives=representatives,
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
