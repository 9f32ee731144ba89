"""Set-based oracle for template documents.

It reads the recipe straight from the JSON document and works on
frozensets of goods, sharing no code with efxcheck: agent 0's rank comes
from the pair table, the exceptional type triples and the
best-internal-triple rule, agent i ranks a bundle by relabeling it i times
through the permutation, and an allocation is EFX when no agent prefers
another bundle with any one good removed to its own.
"""

from __future__ import annotations

from itertools import combinations

GOODS = tuple(range(8))


def _type_of_good(doc: dict) -> dict[int, str]:
    types = {g: entry["name"] for entry in doc["types"] for g in entry["goods"]}
    types.update({g: name for name, g in doc["special_goods"].items()})
    return types


def agent_ranks(doc: dict) -> list[dict[frozenset, int]]:
    """Rank of every bundle for agents 0, 1 and 2."""
    type_of = _type_of_good(doc)
    pair_rank = {}
    for a, row in doc["pair_ranks"].items():
        for b, rank in row.items():
            pair_rank[frozenset((a, b))] = rank
    exceptional = {tuple(sorted(t)) for t in doc["exceptional"]}
    top = doc["top_rank"]

    base: dict[frozenset, int] = {}
    for size in range(len(GOODS) + 1):
        for goods in combinations(GOODS, size):
            bundle = frozenset(goods)
            if size == 0:
                rank = 0
            elif size == 1:
                rank = 1
            elif size == 2:
                rank = pair_rank[frozenset(type_of[g] for g in goods)]
            elif size == 3 and tuple(sorted(type_of[g] for g in goods)) in exceptional:
                rank = top
            elif size == 3:
                rank = max(base[frozenset(pair)] for pair in combinations(goods, 2))
            else:
                rank = max(base[frozenset(triple)] for triple in combinations(goods, 3))
            base[bundle] = rank

    perm = doc["permutation"]
    ranks = []
    for agent in range(3):
        table = {}
        for bundle in base:
            image = bundle
            for _ in range(agent):
                image = frozenset(perm[g] for g in image)
            table[bundle] = base[image]
        ranks.append(table)
    return ranks


def efx_count(doc: dict) -> int:
    """Number of the 3^8 allocations that are EFX."""
    r0, r1, r2 = agent_ranks(doc)
    # b_i[B]: agent i's best rank of B minus any one good (-1 when B is
    # empty).  Agent i does not strongly envy bundle B iff b_i[B] <= own rank.
    b0, b1, b2 = (
        {bundle: max((r[bundle - {g}] for g in bundle), default=-1) for bundle in r}
        for r in (r0, r1, r2)
    )
    everything = frozenset(GOODS)
    subsets = list(r0)
    within = {s: [t for t in subsets if t <= s] for s in subsets}
    count = 0
    for x0 in subsets:
        own0 = r0[x0]
        rest = everything - x0
        for x1 in within[rest]:
            x2 = rest - x1
            own1, own2 = r1[x1], r2[x2]
            if (
                b0[x1] <= own0 and b0[x2] <= own0
                and b1[x0] <= own1 and b1[x2] <= own1
                and b2[x0] <= own2 and b2[x1] <= own2
            ):
                count += 1
    return count


def support_collapse(doc: dict) -> list[bool]:
    """Per agent: does a bundle's rank depend only on its set of types?"""
    type_of = _type_of_good(doc)
    verdicts = []
    for table in agent_ranks(doc):
        seen: dict[frozenset, int] = {}
        verdicts.append(
            all(seen.setdefault(frozenset(type_of[g] for g in b), r) == r for b, r in table.items())
        )
    return verdicts


def identical_agents(doc: dict) -> dict:
    """Every pair rank 1 and no exceptional triple: agents only tell empty
    from nonempty, so an EFX allocation exists (Plaut and Roughgarden,
    SODA 2018)."""
    flat = {a: {b: 1 for b in row} for a, row in doc["pair_ranks"].items()}
    return dict(doc, pair_ranks=flat, exceptional=[])


def self_test(bundled: dict) -> list[str]:
    """Failures of the oracle on the two documents with known answers."""
    failures = []
    if efx_count(bundled) != 0:
        failures.append("oracle: bundled instance should have 0 EFX allocations")
    if efx_count(identical_agents(bundled)) < 1:
        failures.append("oracle: identical agents should have an EFX allocation")
    return failures
