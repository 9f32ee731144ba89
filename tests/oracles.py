"""Independent reference implementations used as test oracles.

Everything here works on plain Python sets and explicit case analysis,
deliberately avoiding the bitmask machinery under test.
"""

from __future__ import annotations

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


def naive_efx_feasible(agent: int, allocation, rank_tables) -> bool:
    """The EFX condition for one agent, read literally: for every other
    agent's bundle and every good in it, the bundle without that good
    ranks no higher than the agent's own.  Bundles are bitmasks because
    the rank tables are indexed by them."""
    own = rank_tables[agent][allocation[agent]]
    for other, bundle in enumerate(allocation):
        if other == agent:
            continue
        for good in [g for g in range(8) if bundle >> g & 1]:
            if rank_tables[agent][bundle - (1 << good)] > own:
                return False
    return True


def naive_is_efx(allocation, rank_tables) -> bool:
    return all(naive_efx_feasible(agent, allocation, rank_tables) for agent in range(3))


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


def naive_transfer(rank_tables, value) -> tuple[int, list]:
    """Strict-order transfer read literally, allocation by allocation in
    counter order (good g goes to agent digit g of the counter in base 3).

    Returns the number of ordinal strong-envy triples (i, j != i, g in
    X_j) with rank_i(X_j - g) > rank_i(X_i), and, in (counter, i, j, g)
    order, those among them where value(i, X_j - g) is not strictly above
    value(i, X_i), as (allocation bitmasks, i, j, g).
    """
    triples = 0
    violations = []
    for counter in range(3**8):
        owners = [counter // 3**g % 3 for g in range(8)]
        allocation = tuple(sum(1 << g for g in range(8) if owners[g] == agent) for agent in range(3))
        for i in range(3):
            own = allocation[i]
            for j in range(3):
                if j == i:
                    continue
                for g in [g for g in range(8) if owners[g] == j]:
                    reduced = allocation[j] - (1 << g)
                    if rank_tables[i][reduced] > rank_tables[i][own]:
                        triples += 1
                        if not value(i, reduced) > value(i, own):
                            violations.append((allocation, i, j, g))
    return triples, violations


def scaled_pair_groups(exponent_tables) -> dict[frozenset, list[int]]:
    """Allocation counters grouped by the set of (own, reduced) level
    exponents that the scaled condition must hold on: for every agent i,
    other agent j and good g in X_j, the pair (e_i(X_i), e_i(X_j - g)).
    Good g goes to agent digit g of the counter in base 3; an exponent of
    None is the zero value.  Counters within a group ascend."""
    groups: dict[frozenset, list[int]] = {}
    for counter in range(3**8):
        owners = [counter // 3**g % 3 for g in range(8)]
        allocation = tuple(sum(1 << g for g in range(8) if owners[g] == agent) for agent in range(3))
        pairs = frozenset(
            (exponent_tables[i][allocation[i]], exponent_tables[i][allocation[j] - (1 << g)])
            for i in range(3)
            for j in range(3)
            if j != i
            for g in range(8)
            if owners[g] == j
        )
        groups.setdefault(pairs, []).append(counter)
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
