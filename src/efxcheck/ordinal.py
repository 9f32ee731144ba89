"""Rank functions over bundles: the built-in cyclic instance and templates.

A rank function maps bundles to small non-negative integers and induces a
weak preference order (higher rank preferred, equal rank indifferent).
The built-in instance fixes agent 0's ranks by a typed recipe:

* the empty bundle has rank 0, every singleton rank 1;
* a pair's rank depends only on the types of its two goods (a fixed
  symmetric table with entries 1..6);
* a triple is "exceptional", and gets the top rank 7, when it holds one
  good from A or x, one B-good, and one C-good; any other triple inherits
  the largest rank of an internal pair;
* a bundle of four or more goods inherits the largest rank of an internal
  triple.

Agents 1 and 2 rank a bundle by applying the cyclic relabeling once or
twice and asking agent 0.  User templates follow the same recipe with
their own type partition, pair table, exceptional type triples, top rank,
and relabeling permutation; the built-in instance is itself shipped as
such a template (paper_instance.json) and round-trips through the loader.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations

from .core import (
    ALL_BUNDLES,
    GOODS,
    N_AGENTS,
    N_GOODS,
    RELABELING,
    Allocation,
    Bundle,
    apply_permutation,
    bundle_of,
    bundle_size,
    is_permutation,
    members,
    permutation_power,
)

TOP_RANK = 7

# Pair ranks by unordered type pair.  Same-type entries cover pairs of two
# distinct goods of that type; (x, x) and (y, y) stay undefined because
# only one good of each special type exists.
PAIR_RANKS: dict[tuple[str, str], int] = {
    ("A", "A"): 1,
    ("A", "B"): 2,
    ("A", "C"): 2,
    ("A", "x"): 4,
    ("A", "y"): 6,
    ("B", "B"): 1,
    ("B", "C"): 5,
    ("B", "x"): 1,
    ("B", "y"): 3,
    ("C", "C"): 1,
    ("C", "x"): 1,
    ("C", "y"): 3,
    ("x", "y"): 1,
}

# Good groups for the exceptional-triple rule: one good from A or x, one
# from B, one from C.
_AX_GROUP: Bundle = bundle_of((0, 3, 6))
_B_GROUP: Bundle = bundle_of((1, 4))
_C_GROUP: Bundle = bundle_of((2, 5))

EXCEPTIONAL_TYPE_TRIPLES: tuple[tuple[str, str, str], ...] = (
    ("A", "B", "C"),
    ("B", "C", "x"),
)


class UndefinedPairRank(ValueError):
    """Raised for type pairs with no realizable two-good bundle."""


class TemplateError(ValueError):
    """Template document rejected; location names the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


def base_pair_rank(type_a: str, type_b: str) -> int:
    """Rank of a two-good bundle from the types of its goods (agent 0)."""
    key = (type_a, type_b) if type_a <= type_b else (type_b, type_a)
    try:
        return PAIR_RANKS[key]
    except KeyError:
        raise UndefinedPairRank(f"no pair of distinct goods has types ({type_a}, {type_b})") from None


def is_exceptional(bundle: Bundle) -> bool:
    """True for the twelve top-rank triples of the built-in instance."""
    return (
        bundle_size(bundle) == 3
        and (bundle & _AX_GROUP).bit_count() == 1
        and (bundle & _B_GROUP).bit_count() == 1
        and (bundle & _C_GROUP).bit_count() == 1
    )


@dataclass(frozen=True)
class InstanceTemplate:
    """Construction recipe for a cyclic three-agent rank profile.

    type_goods lists every type with its goods, multi-good types first and
    special one-good types last, in declaration order; that order is the
    canonical order for support labels.  pair_ranks holds one entry per
    realizable unordered type pair.  exceptional lists the type multisets
    whose triples receive top_rank.
    """

    type_goods: tuple[tuple[str, tuple[int, ...]], ...]
    special_types: tuple[str, ...]
    pair_ranks: tuple[tuple[tuple[str, str], int], ...]
    exceptional: tuple[tuple[str, str, str], ...]
    top_rank: int
    permutation: tuple[int, ...]

    def type_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.type_goods)

    def type_of_good(self) -> tuple[str, ...]:
        by_good = {}
        for name, goods in self.type_goods:
            for g in goods:
                by_good[g] = name
        return tuple(by_good[g] for g in GOODS)

    def pair_rank_map(self) -> dict[tuple[str, str], int]:
        return dict(self.pair_ranks)


@dataclass(frozen=True)
class OrdinalProfile:
    """Three memoized rank functions plus the tables they were built from.

    rank_tables[i][bundle] answers agent i in O(1); bundle_images[i] maps a
    bundle through the i-th power of the relabeling, and support_labels
    gives the canonical type-support string of every bundle under the
    template's partition.
    """

    template: InstanceTemplate
    rank_tables: tuple[tuple[int, ...], ...]
    bundle_images: tuple[tuple[int, ...], ...]
    support_labels: tuple[str, ...]
    top_rank: int

    @property
    def permutation(self) -> tuple[int, ...]:
        return self.template.permutation

    def rank(self, agent: int, bundle: Bundle) -> int:
        return self.rank_tables[agent][bundle]


def _sorted_pair(type_a: str, type_b: str) -> tuple[str, str]:
    return (type_a, type_b) if type_a <= type_b else (type_b, type_a)


def _build_rank_table(template: InstanceTemplate) -> tuple[int, ...]:
    """Agent 0's table via the literal recipe, with the size>=4 shortcut
    (has exceptional triple, else best pair) asserted against the literal
    best-internal-triple definition."""
    type_of_good = template.type_of_good()
    pair_map = template.pair_rank_map()
    exceptional_multisets = {tuple(sorted(entry)) for entry in template.exceptional}

    exceptional_masks = set()
    for triple in combinations(GOODS, 3):
        if tuple(sorted(type_of_good[g] for g in triple)) in exceptional_multisets:
            exceptional_masks.add(bundle_of(triple))

    table = [0] * len(ALL_BUNDLES)
    for bundle in ALL_BUNDLES:
        size = bundle_size(bundle)
        if size == 0:
            continue
        goods = members(bundle)
        if size == 1:
            table[bundle] = 1
        elif size == 2:
            table[bundle] = pair_map[_sorted_pair(type_of_good[goods[0]], type_of_good[goods[1]])]
        elif size == 3:
            if bundle in exceptional_masks:
                table[bundle] = template.top_rank
            else:
                table[bundle] = max(
                    table[bundle ^ (1 << g)] for g in goods
                )
        else:
            table[bundle] = max(
                table[bundle_of(triple)] for triple in combinations(goods, 3)
            )

    for bundle in ALL_BUNDLES:
        if bundle_size(bundle) < 4:
            continue
        if any(mask & bundle == mask for mask in exceptional_masks):
            shortcut = template.top_rank
        else:
            shortcut = max(
                table[bundle_of(pair)] for pair in combinations(members(bundle), 2)
            )
        if table[bundle] != shortcut:
            raise AssertionError(
                f"triple-max reduction disagrees on bundle {members(bundle)}: "
                f"{table[bundle]} vs {shortcut}"
            )
    return tuple(table)


def build_profile(template: InstanceTemplate) -> OrdinalProfile:
    """Materialize the three agents' rank tables from a template."""
    base_table = _build_rank_table(template)
    images = []
    for agent in range(N_AGENTS):
        perm = permutation_power(template.permutation, agent)
        images.append(tuple(apply_permutation(perm, bundle) for bundle in ALL_BUNDLES))
    rank_tables = tuple(
        tuple(base_table[images[agent][bundle]] for bundle in ALL_BUNDLES)
        for agent in range(N_AGENTS)
    )
    type_of_good = template.type_of_good()
    order = template.type_names()
    labels = []
    for bundle in ALL_BUNDLES:
        present = {type_of_good[g] for g in members(bundle)}
        labels.append("".join(t for t in order if t in present) or "∅")
    return OrdinalProfile(
        template=template,
        rank_tables=rank_tables,
        bundle_images=tuple(images),
        support_labels=tuple(labels),
        top_rank=template.top_rank,
    )


def builtin_template() -> InstanceTemplate:
    return InstanceTemplate(
        type_goods=(
            ("A", (0, 3)),
            ("B", (1, 4)),
            ("C", (2, 5)),
            ("x", (6,)),
            ("y", (7,)),
        ),
        special_types=("x", "y"),
        pair_ranks=tuple(sorted(PAIR_RANKS.items())),
        exceptional=EXCEPTIONAL_TYPE_TRIPLES,
        top_rank=TOP_RANK,
        permutation=RELABELING,
    )


@lru_cache(maxsize=1)
def builtin_profile() -> OrdinalProfile:
    return build_profile(builtin_template())


def rank0(bundle: Bundle) -> int:
    """Agent 0's rank of a bundle in the built-in instance."""
    return builtin_profile().rank_tables[0][bundle]


def rank_for_agent(agent: int, bundle: Bundle) -> int:
    """Rank of a bundle for any agent of the built-in instance."""
    return builtin_profile().rank_tables[agent][bundle]


def efx_feasible(agent: int, allocation: Allocation, profile: OrdinalProfile) -> bool:
    """Single-agent condition: the agent's bundle ranks at least as high as
    every other bundle with any one good removed."""
    ranks = profile.rank_tables[agent]
    own = ranks[allocation[agent]]
    for bundle in allocation:
        m = bundle
        while m:
            low = m & -m
            if ranks[bundle ^ low] > own:
                return False
            m ^= low
    return True


def is_efx(allocation: Allocation, profile: OrdinalProfile) -> bool:
    return all(efx_feasible(agent, allocation, profile) for agent in range(N_AGENTS))


def strong_envy_witness(
    allocation: Allocation, profile: OrdinalProfile
) -> tuple[int, int, int] | None:
    """Lexicographically first (i, j, g) with agent i preferring bundle j
    minus good g over their own bundle; None when the allocation is EFX."""
    for i in range(N_AGENTS):
        ranks = profile.rank_tables[i]
        own = ranks[allocation[i]]
        for j in range(N_AGENTS):
            if j == i:
                continue
            bundle = allocation[j]
            for g in members(bundle):
                if ranks[bundle ^ (1 << g)] > own:
                    return (i, j, g)
    return None


# ---------------------------------------------------------------------------
# Template documents


def _require(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise TemplateError(message, location)


def _is_int(value) -> bool:
    # JSON booleans arrive as Python bools, which subclass int; reject them.
    return isinstance(value, int) and not isinstance(value, bool)


def parse_template(text: str) -> InstanceTemplate:
    """Parse and validate a template document (JSON)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TemplateError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None
    except ValueError:
        # The only other ValueError json raises: an integer literal longer
        # than Python's int-to-str digit limit.
        limit = sys.get_int_max_str_digits()
        raise TemplateError(f"integer literal longer than {limit} digits", "$") from None
    except RecursionError:
        raise TemplateError("arrays or objects nested too deeply", "$") from None
    _require(isinstance(doc, dict), "document must be a JSON object", "$")

    for field in ("types", "special_goods", "pair_ranks", "exceptional", "top_rank", "permutation"):
        _require(field in doc, f"missing field '{field}'", "$")

    entries = doc["types"]
    _require(isinstance(entries, list) and entries, "must be a non-empty list", "types")
    type_goods: list[tuple[str, tuple[int, ...]]] = []
    seen_names: set[str] = set()
    for idx, entry in enumerate(entries):
        loc = f"types[{idx}]"
        _require(isinstance(entry, dict), "must be an object with 'name' and 'goods'", loc)
        name = entry.get("name")
        goods = entry.get("goods")
        _require(isinstance(name, str) and name, "type name must be a non-empty string", f"{loc}.name")
        _require(name not in seen_names, f"duplicate type name '{name}'", f"{loc}.name")
        seen_names.add(name)
        _require(
            isinstance(goods, list) and goods and all(_is_int(g) for g in goods),
            "goods must be a non-empty list of integers",
            f"{loc}.goods",
        )
        type_goods.append((name, tuple(goods)))

    specials = doc["special_goods"]
    _require(isinstance(specials, dict), "must map type names to single goods", "special_goods")
    special_names: list[str] = []
    for name, good in specials.items():
        loc = f"special_goods.{name}"
        _require(isinstance(name, str) and name, "special type name must be a non-empty string", loc)
        _require(name not in seen_names, f"duplicate type name '{name}'", loc)
        seen_names.add(name)
        _require(_is_int(good), "special good must be a single integer", loc)
        type_goods.append((name, (good,)))
        special_names.append(name)

    claimed: dict[int, str] = {}
    for name, goods in type_goods:
        for g in goods:
            _require(0 <= g < N_GOODS, f"good index {g} out of range 0..{N_GOODS - 1}", f"type '{name}'")
            _require(g not in claimed, f"good {g} assigned to both '{claimed.get(g)}' and '{name}'", f"type '{name}'")
            claimed[g] = name
    _require(len(claimed) == N_GOODS, f"types must cover all {N_GOODS} goods exactly once", "types")

    top_rank = doc["top_rank"]
    _require(_is_int(top_rank) and top_rank >= 1, "must be an integer >= 1", "top_rank")

    goods_per_type = {name: len(goods) for name, goods in type_goods}
    names = [name for name, _ in type_goods]
    realizable = {
        _sorted_pair(a, b)
        for a, b in combinations(names, 2)
    } | {(name, name) for name in names if goods_per_type[name] >= 2}

    raw_pairs = doc["pair_ranks"]
    _require(isinstance(raw_pairs, dict), "must be a nested map of type pairs to ranks", "pair_ranks")
    collected: dict[tuple[str, str], int] = {}
    for first, row in raw_pairs.items():
        _require(first in seen_names, f"unknown type '{first}'", f"pair_ranks.{first}")
        _require(isinstance(row, dict), "must map type names to ranks", f"pair_ranks.{first}")
        for second, rank in row.items():
            loc = f"pair_ranks.{first}.{second}"
            _require(second in seen_names, f"unknown type '{second}'", loc)
            key = _sorted_pair(first, second)
            _require(key in realizable, "no pair of distinct goods has these types", loc)
            _require(_is_int(rank), "rank must be an integer", loc)
            _require(1 <= rank <= top_rank, f"rank {rank} outside declared range 1..{top_rank}", loc)
            if key in collected:
                _require(
                    collected[key] == rank,
                    f"conflicts with symmetric entry {collected[key]}",
                    loc,
                )
            collected[key] = rank
    for key in sorted(realizable):
        _require(key in collected, f"missing pair rank for types ({key[0]}, {key[1]})", "pair_ranks")

    raw_exceptional = doc["exceptional"]
    _require(isinstance(raw_exceptional, list), "must be a list of type triples", "exceptional")
    exceptional: list[tuple[str, str, str]] = []
    for idx, entry in enumerate(raw_exceptional):
        loc = f"exceptional[{idx}]"
        _require(
            isinstance(entry, list) and len(entry) == 3 and all(isinstance(t, str) for t in entry),
            "must be a list of three type names",
            loc,
        )
        triple = tuple(sorted(entry))
        for name in triple:
            _require(name in seen_names, f"unknown type '{name}'", loc)
        for name in set(triple):
            _require(
                triple.count(name) <= goods_per_type[name],
                f"type '{name}' has only {goods_per_type[name]} good(s)",
                loc,
            )
        _require(triple not in exceptional, "duplicate exceptional triple", loc)
        exceptional.append(triple)  # type: ignore[arg-type]

    raw_perm = doc["permutation"]
    _require(
        isinstance(raw_perm, list) and all(_is_int(v) for v in raw_perm),
        "must be a list of integers",
        "permutation",
    )
    perm = tuple(raw_perm)
    _require(is_permutation(perm), f"must be a bijection on 0..{N_GOODS - 1}", "permutation")
    _require(
        permutation_power(perm, N_AGENTS) == tuple(GOODS),
        f"permutation order must divide the agent count {N_AGENTS}",
        "permutation",
    )

    return InstanceTemplate(
        type_goods=tuple(type_goods),
        special_types=tuple(special_names),
        pair_ranks=tuple(sorted(collected.items())),
        exceptional=tuple(exceptional),
        top_rank=top_rank,
        permutation=perm,
    )


def serialize_template(template: InstanceTemplate) -> str:
    """Template back to its JSON document form (inverse of parse_template)."""
    specials = set(template.special_types)
    doc = {
        "types": [
            {"name": name, "goods": list(goods)}
            for name, goods in template.type_goods
            if name not in specials
        ],
        "special_goods": {
            name: goods[0]
            for name, goods in template.type_goods
            if name in specials
        },
        "top_rank": template.top_rank,
        "pair_ranks": {},
        "exceptional": [list(entry) for entry in template.exceptional],
        "permutation": list(template.permutation),
    }
    pair_ranks: dict[str, dict[str, int]] = {}
    for (first, second), rank in template.pair_ranks:
        pair_ranks.setdefault(first, {})[second] = rank
    doc["pair_ranks"] = pair_ranks
    return json.dumps(doc, indent=2, sort_keys=True)


def load_template(text: str) -> tuple[InstanceTemplate, OrdinalProfile]:
    template = parse_template(text)
    return template, build_profile(template)


def load_template_file(path: str) -> tuple[InstanceTemplate, OrdinalProfile]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TemplateError(str(exc), path) from None
    except UnicodeDecodeError as exc:
        raise TemplateError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", path) from None
    return load_template(text)


def bundled_instance_text() -> str:
    """The built-in instance's template document as shipped."""
    return resources.files(__package__).joinpath("paper_instance.json").read_text("utf-8")
