"""Independent reference implementations used as test oracles.

Everything here works on plain Python sets and explicit case analysis,
deliberately avoiding the bitmask machinery under test; this module
imports nothing from efxcheck.

It is also the one place the strong-envy rule is written.
envy_triples() lists an allocation's triples (i, j, g, X_i, X_j - g) on
frozensets, and universe() decodes every counter literally (good g goes
to agent digit g of the counter in base 3) once per test run, keeping
each allocation's bundles and triples; triples_of() reads a witness's
triples there after counter_of() checks that its bundles partition the
goods.  The readers below take a value table, one mapping per agent
from frozenset bundles to comparable values (see keyed()), and answer
EFX, agent feasibility, deficits, first witnesses, transfer and scaled
exponent pairs from those triples.

Sums of level values q**e, q = 2**(-1/6), are signed exactly in the ring
generated by q (ring_power, ring_sign, exact_level_sign), the reference
for efxcheck's gap table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

TYPE_BY_GOOD = {0: "A", 1: "B", 2: "C", 3: "A", 4: "B", 5: "C", 6: "x", 7: "y"}

PAIR_TABLE = {
    frozenset(("A",)): 1,
    frozenset(("A", "B")): 2,
    frozenset(("A", "C")): 2,
    frozenset(("A", "x")): 4,
    frozenset(("A", "y")): 6,
    frozenset(("B",)): 1,
    frozenset(("B", "C")): 5,
    frozenset(("B", "x")): 1,
    frozenset(("B", "y")): 3,
    frozenset(("C",)): 1,
    frozenset(("C", "x")): 1,
    frozenset(("C", "y")): 3,
    frozenset(("x", "y")): 1,
}

SIGMA = {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3, 6: 6, 7: 7}

# SIGMA as a permutation tuple: good g goes to RELABELING[g].
RELABELING = tuple(SIGMA[g] for g in range(8))

COVERAGE_TERMS = [
    (1, {1, 4}),
    (1, {2, 5}),
    (3, {0, 3, 6}),
    (3, {1, 4, 7}),
    (3, {2, 5, 7}),
    (8, {0, 1, 3, 4}),
    (8, {0, 2, 3, 5}),
    (9, {1, 4, 6, 7}),
    (9, {2, 5, 6, 7}),
    (2, {0, 1, 3, 4, 7}),
    (2, {0, 2, 3, 5, 7}),
]


def naive_is_exceptional(goods: frozenset[int]) -> bool:
    if len(goods) != 3:
        return False
    in_ax = sum(1 for g in goods if g in (0, 3, 6))
    in_b = sum(1 for g in goods if g in (1, 4))
    in_c = sum(1 for g in goods if g in (2, 5))
    return in_ax == 1 and in_b == 1 and in_c == 1


def naive_rank(goods: frozenset[int]) -> int:
    size = len(goods)
    if size == 0:
        return 0
    if size == 1:
        return 1
    if size == 2:
        return PAIR_TABLE[frozenset(TYPE_BY_GOOD[g] for g in goods)]
    if size == 3:
        if naive_is_exceptional(goods):
            return 7
        return max(naive_rank(frozenset(pair)) for pair in combinations(goods, 2))
    return max(naive_rank(frozenset(triple)) for triple in combinations(goods, 3))


def naive_rank_for_agent(agent: int, goods: frozenset[int]) -> int:
    image = goods
    for _ in range(agent):
        image = frozenset(SIGMA[g] for g in image)
    return naive_rank(image)


def literal_profile(doc: dict) -> tuple[list[dict], list[dict], dict]:
    """The rank recipe of a template document, read literally.

    Agent 0: the empty bundle 0, a singleton 1, a pair the table entry of
    its two types, a triple top_rank when its type multiset is listed as
    exceptional and otherwise the best internal pair, and a larger bundle
    the best internal triple.  Agent i ranks a bundle by relabeling it i
    times through the permutation.  Returns per-agent ranks and images,
    and the support label of every bundle, all keyed by frozenset.
    """
    goods = tuple(range(8))
    type_of = {g: entry["name"] for entry in doc["types"] for g in entry["goods"]}
    type_of.update({g: name for name, g in doc["special_goods"].items()})
    order = [entry["name"] for entry in doc["types"]] + list(doc["special_goods"])
    pair_rank = {}
    for first, row in doc["pair_ranks"].items():
        for second, rank in row.items():
            pair_rank[frozenset((first, second))] = rank
    exceptional = {tuple(sorted(triple)) for triple in doc["exceptional"]}

    base: dict[frozenset, int] = {}
    for size in range(len(goods) + 1):
        for members in combinations(goods, size):
            if size == 0:
                rank = 0
            elif size == 1:
                rank = 1
            elif size == 2:
                rank = pair_rank[frozenset(type_of[g] for g in members)]
            elif size == 3 and tuple(sorted(type_of[g] for g in members)) in exceptional:
                rank = doc["top_rank"]
            elif size == 3:
                rank = max(base[frozenset(pair)] for pair in combinations(members, 2))
            else:
                rank = max(base[frozenset(triple)] for triple in combinations(members, 3))
            base[frozenset(members)] = rank

    perm = doc["permutation"]
    ranks, images = [], []
    for agent in range(3):
        image_of = {}
        for bundle in base:
            image = bundle
            for _ in range(agent):
                image = frozenset(perm[g] for g in image)
            image_of[bundle] = image
        images.append(image_of)
        ranks.append({bundle: base[image] for bundle, image in image_of.items()})
    labels = {}
    for bundle in base:
        present = {type_of[g] for g in bundle}
        labels[bundle] = "".join(name for name in order if name in present) or "∅"
    return ranks, images, labels


def naive_coverage(goods: frozenset[int]) -> int:
    return sum(weight for weight, covered in COVERAGE_TERMS if goods & covered)


def naive_coverage_for_agent(agent: int, goods: frozenset[int]) -> int:
    image = goods
    for _ in range(agent):
        image = frozenset(SIGMA[g] for g in image)
    return naive_coverage(image)


LEVEL_BASE = 2 ** (-1 / 6)


def float_level_sum(exponents: list[int | None], target: int | None) -> float:
    """Floating approximation of (sum of base**e) - base**target; only a
    sanity companion to the exact sign, with a margin guard in tests."""
    total = sum(0.0 if e is None else LEVEL_BASE**e for e in exponents)
    total -= 0.0 if target is None else LEVEL_BASE**target
    return total


def ring_power(exponent: int) -> tuple[Fraction, ...]:
    """base**exponent as rational coefficients of 1, base, ..., base**5,
    reduced by base**6 = 1/2.  2 x**6 - 1 is irreducible, so these six
    powers are independent and an element is zero exactly when every
    coefficient is."""
    whole, rest = divmod(exponent, 6)
    return tuple(Fraction(1, 2**whole) if i == rest else Fraction(0) for i in range(6))


def _floor_sixth_root(n: int) -> int:
    low, high = 0, 1 << (n.bit_length() // 6 + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid**6 <= n:
            low = mid
        else:
            high = mid - 1
    return low


def ring_sign(coeffs: tuple[Fraction, ...]) -> int:
    """Certified sign of sum(c_i base**i).

    base lies strictly between m / 2**k and (m + 1) / 2**k with m the
    floor of the sixth root of 2**(6k - 1).  Each coefficient takes the
    endpoint that makes its term least (or greatest), bounding the value
    from both sides; k doubles until the bounds share a sign, which a
    nonzero element reaches since its value is nonzero.
    """
    if not any(coeffs):
        return 0
    for k in (8 << doubling for doubling in range(12)):
        low, high = _bracket_powers(k)
        least = sum(c * (low[i] if c > 0 else high[i]) for i, c in enumerate(coeffs))
        greatest = sum(c * (high[i] if c > 0 else low[i]) for i, c in enumerate(coeffs))
        if least > 0:
            return 1
        if greatest < 0:
            return -1
    raise AssertionError(f"no certified sign for {coeffs}")


@lru_cache(maxsize=None)
def _bracket_powers(k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    m = _floor_sixth_root(1 << (6 * k - 1))
    return tuple(tuple(Fraction(end, 1 << k) ** i for i in range(6)) for end in (m, m + 1))


def exact_level_sign(exponents: list[int | None], target: int | None) -> int:
    """Sign of (sum of base**e) - base**target in exact ring arithmetic;
    None stands for the value zero."""
    total = [Fraction(0)] * 6
    for exponent, weight in [(e, 1) for e in exponents] + [(target, -1)]:
        if exponent is not None:
            total = [t + weight * c for t, c in zip(total, ring_power(exponent))]
    return ring_sign(tuple(total))


# ---------------------------------------------------------------------------
# The allocation universe on frozensets

GOODS = tuple(range(8))
AGENTS = (0, 1, 2)
N_ALLOCATIONS = 3**8

# Every bundle once, so the universe table shares 256 frozensets.
BUNDLES = {bundle: bundle for size in range(9) for bundle in map(frozenset, combinations(GOODS, size))}


def mask(bundle) -> int:
    """The bitmask of a collection of goods: bit g set for good g."""
    return sum(1 << g for g in bundle)


def unmask(bitmask: int) -> frozenset[int]:
    return BUNDLES[frozenset(g for g in GOODS if bitmask >> g & 1)]


def counter_of(bundles) -> int:
    """The counter of an allocation given as collections of goods: good g
    held by agent a contributes a * 3**g.  Raises ValueError unless the
    bundles are one per agent and hold every good exactly once."""
    if len(bundles) != len(AGENTS) or sorted(g for bundle in bundles for g in bundle) != list(GOODS):
        raise ValueError(f"not an allocation of goods {GOODS} to agents {AGENTS}: {bundles!r}")
    return sum(agent * 3**g for agent, bundle in enumerate(bundles) for g in bundle)


def bundles_of(counter: int) -> tuple[frozenset[int], ...]:
    owners = [counter // 3**g % 3 for g in GOODS]
    return tuple(BUNDLES[frozenset(g for g in GOODS if owners[g] == agent)] for agent in AGENTS)


def rotated_counter(bundles, permutation) -> int:
    """The counter of (perm(X1), perm(X2), perm(X0)), one relabeling step."""
    return counter_of([{permutation[g] for g in bundles[agent]} for agent in (1, 2, 0)])


def keyed(source) -> tuple[dict, ...]:
    """A value table: per agent, every bundle's value keyed by frozenset.
    source is value(agent, bitmask), or per-agent tables indexed by
    bitmask."""
    value = source if callable(source) else lambda agent, bitmask: source[agent][bitmask]
    return tuple({bundle: value(agent, mask(bundle)) for bundle in BUNDLES} for agent in AGENTS)


def envy_triples(bundles) -> tuple[tuple, ...]:
    """Every (i, j, g, X_i, X_j - g) with j != i and g in X_j, in (i, j, g)
    order: the comparisons the EFX condition makes."""
    return tuple(
        (i, j, g, bundles[i], BUNDLES[bundles[j] - {g}])
        for i in AGENTS
        for j in AGENTS
        if j != i
        for g in sorted(bundles[j])
    )


@lru_cache(maxsize=1)
def universe() -> tuple[tuple[tuple[frozenset[int], ...], tuple[tuple, ...]], ...]:
    """(bundles, envy triples) of every allocation, in counter order."""
    return tuple((bundles, envy_triples(bundles)) for bundles in map(bundles_of, range(N_ALLOCATIONS)))


def triples_of(bundles) -> tuple[tuple, ...]:
    """The envy triples of an allocation given as collections of goods,
    read from universe(); raises ValueError as counter_of does."""
    return universe()[counter_of(bundles)][1]


# --- readers of one allocation's triples ------------------------------------


def envious(values, triples):
    """The triples in which agent i values X_j - g strictly above X_i."""
    return (t for t in triples if values[t[0]][t[4]] > values[t[0]][t[3]])


def first_witness(values, triples) -> tuple[int, int, int] | None:
    """The first envious (i, j, g), or None when the allocation is EFX."""
    return next((t[:3] for t in envious(values, triples)), None)


def deficit(values, triples) -> int:
    """max(0, the largest value gap v_i(X_j - g) - v_i(X_i))."""
    return max(0, max(values[i][reduced] - values[i][own] for i, _, _, own, reduced in triples))


def value_pairs(values, triples) -> frozenset:
    """The distinct (v_i(X_i), v_i(X_j - g)) pairs of the triples."""
    return frozenset((values[i][own], values[i][reduced]) for i, _, _, own, reduced in triples)


# --- readers of the universe, per counter -----------------------------------


def first_witnesses(values) -> list:
    return [first_witness(values, triples) for _, triples in universe()]


def efx_counters(values) -> list[int]:
    return [counter for counter, witness in enumerate(first_witnesses(values)) if witness is None]


def agent_feasible(values, agent: int) -> list[bool]:
    """Whether the agent envies no other bundle up to any one good."""
    return [not any(t[0] == agent for t in envious(values, triples)) for _, triples in universe()]


def deficits(values) -> tuple[int, ...]:
    return tuple(deficit(values, triples) for _, triples in universe())


def transfer(ranks, values) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Strict-order transfer: the number of triples envious under ranks,
    and, in (counter, i, j, g) order, those among them where values does
    not put X_j - g strictly above X_i."""
    count, violations = 0, []
    for counter, (_, triples) in enumerate(universe()):
        for i, j, g, own, reduced in envious(ranks, triples):
            count += 1
            if not values[i][reduced] > values[i][own]:
                violations.append((counter, i, j, g))
    return count, violations


def scaled_pair_groups(exponents) -> dict[frozenset, list[int]]:
    """Allocation counters grouped by the set of (own, reduced) level
    exponent pairs that the scaled condition must hold on; an exponent of
    None is the zero value.  Counters within a group ascend."""
    groups: dict[frozenset, list[int]] = {}
    for counter, (_, triples) in enumerate(universe()):
        groups.setdefault(value_pairs(exponents, triples), []).append(counter)
    return groups


def scaled_efx_counters(groups: dict[frozenset, list[int]], holds) -> list[int]:
    """Counters, ascending, of the allocations whose every pair satisfies
    holds(own exponent, reduced exponent); holds is asked once per
    distinct pair."""
    decided = {pair: holds(*pair) for pair in frozenset().union(*groups)}
    return sorted(
        counter
        for pairs, counters in groups.items()
        if all(decided[pair] for pair in pairs)
        for counter in counters
    )
