"""Rank functions over bundles: the built-in cyclic instance and templates.

A rank function maps bundles to small non-negative integers and induces a
weak preference order (higher rank preferred, equal rank indifferent).
A template fixes agent 0's ranks by a typed recipe:

* the empty bundle has rank 0, every singleton rank 1;
* a pair's rank depends only on the types of its two goods (a symmetric
  table with entries 1..top_rank);
* a triple whose type multiset is listed as exceptional gets top_rank;
* every other bundle of three or more goods takes the largest rank of its
  one-good reductions.

The last rule equals the literal recipe, under which a non-exceptional
triple inherits the largest rank of an internal pair and a bundle of four
or more goods the largest rank of an internal triple.  A triple's one-good
reductions are its pairs.  Every internal triple of a larger bundle B lies
in some reduction B - g, whose rank is, by induction on the size, the
largest rank of a triple inside it.  The built-in instance lists A B C
and B C x as exceptional, so its exceptional triples hold one good from A
or x, one B-good and one C-good.

Agents 1 and 2 rank a bundle by applying the relabeling once or twice and
asking agent 0.  The built-in instance is read from its shipped template
document, paper_instance.json, through the same loader and validation as
user templates; type_of, support_of and rotate_allocation are reads of
that template, which is the only place the built-in partition and
relabeling are written down.

This module builds and loads profiles and nothing else: every test of an
allocation lives in efxcheck.verify.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from itertools import combinations

from .core import (
    ALL_BUNDLES,
    GOODS,
    N_AGENTS,
    N_GOODS,
    Bundle,
    Record,
    apply_permutation,
    is_permutation,
    members,
    one_good_reductions,
    permutation_power,
)

# Longest template document read from a file, in characters.  The shipped
# instance is under 1 KiB; the bound keeps a stream such as /dev/zero from
# being read into memory without end.
MAX_TEMPLATE_CHARS = 1 << 20


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
    try:
        return builtin_template().pair_rank_map()[_sorted_pair(type_a, type_b)]
    except KeyError:
        raise UndefinedPairRank(f"no pair of distinct goods has types ({type_a}, {type_b})") from None


def is_exceptional(bundle: Bundle) -> bool:
    """True for the twelve top-rank triples of the built-in instance."""
    return bundle in _exceptional_bundles(builtin_template())


class InstanceTemplate(Record):
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


class OrdinalProfile(Record):
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


def _sorted_pair(type_a: str, type_b: str) -> tuple[str, str]:
    return (type_a, type_b) if type_a <= type_b else (type_b, type_a)


def _type_set_labels(names: tuple[str, ...]) -> list[str]:
    """The support label of every set of types, indexed by the mask of
    their declaration positions: their names in declaration order, joined
    with no separator, or "∅" for no type."""
    labels = [""]
    for name in names:
        labels += [label + name for label in labels]
    labels[0] = "∅"
    return labels


def support_representatives(support_labels: tuple[str, ...]) -> tuple[Bundle, ...]:
    """For every bundle, the first bundle in integer order with the same
    support label: the representative of its support class."""
    first: dict[str, Bundle] = {}
    return tuple(first.setdefault(label, bundle) for bundle, label in enumerate(support_labels))


def _exceptional_bundles(template: InstanceTemplate) -> frozenset[Bundle]:
    """The triples whose type multiset the template lists as exceptional."""
    type_of_good = template.type_of_good()
    listed = set(template.exceptional)
    return frozenset(
        bundle
        for bundle in ALL_BUNDLES
        if bundle.bit_count() == 3 and tuple(sorted(type_of_good[g] for g in members(bundle))) in listed
    )


def build_profile(template: InstanceTemplate) -> OrdinalProfile:
    """Materialize the three agents' rank tables from a template.

    One pass over the bundles in increasing order: a bundle's entries
    follow from those of the bundle without its lowest good, and from its
    one-good reductions, all of which are smaller integers.
    """
    type_of_good = template.type_of_good()
    names = template.type_names()
    type_bit = {name: 1 << index for index, name in enumerate(names)}
    pair_map = template.pair_rank_map()
    exceptional = _exceptional_bundles(template)
    top_rank = template.top_rank
    perms = [permutation_power(template.permutation, agent) for agent in range(N_AGENTS)]
    reductions = one_good_reductions()

    base = [0] * len(ALL_BUNDLES)
    images = [[0] * len(ALL_BUNDLES) for _ in perms]
    type_masks = [0] * len(ALL_BUNDLES)
    for bundle in ALL_BUNDLES[1:]:
        low = bundle & -bundle
        rest = bundle ^ low
        good = low.bit_length() - 1
        for image, perm in zip(images, perms):
            image[bundle] = image[rest] | 1 << perm[good]
        type_masks[bundle] = type_masks[rest] | type_bit[type_of_good[good]]
        size = bundle.bit_count()
        if size == 1:
            base[bundle] = 1
        elif size == 2:
            other = rest.bit_length() - 1
            base[bundle] = pair_map[_sorted_pair(type_of_good[good], type_of_good[other])]
        elif bundle in exceptional:
            base[bundle] = top_rank
        else:
            base[bundle] = max(map(base.__getitem__, reductions[bundle]))

    labels = _type_set_labels(names)
    return OrdinalProfile(
        template=template,
        rank_tables=tuple(tuple(map(base.__getitem__, image)) for image in images),
        bundle_images=tuple(tuple(image) for image in images),
        support_labels=tuple(map(labels.__getitem__, type_masks)),
        top_rank=top_rank,
    )


@lru_cache(maxsize=1)
def builtin_template() -> InstanceTemplate:
    """The built-in instance, read from its shipped template document."""
    return parse_template(bundled_instance_text())


@lru_cache(maxsize=1)
def builtin_profile() -> OrdinalProfile:
    return build_profile(builtin_template())


def rank0(bundle: Bundle) -> int:
    """Agent 0's rank of a bundle in the built-in instance."""
    return builtin_profile().rank_tables[0][bundle]


def rank_for_agent(agent: int, bundle: Bundle) -> int:
    """Rank of a bundle for any agent of the built-in instance."""
    return builtin_profile().rank_tables[agent][bundle]


def type_of(good: int) -> str:
    """Item type of a good in the built-in instance."""
    return builtin_template().type_of_good()[good]


def support_of(bundle: Bundle) -> frozenset[str]:
    """Types of the built-in instance with at least one good in the bundle."""
    return frozenset(map(builtin_template().type_of_good().__getitem__, members(bundle)))


def rotate_allocation(
    allocation: tuple[Bundle, Bundle, Bundle], perm: tuple[int, ...] | None = None
) -> tuple[Bundle, Bundle, Bundle]:
    """One cyclic step: (X0, X1, X2) becomes (perm(X1), perm(X2), perm(X0)),
    perm being the built-in relabeling unless given."""
    perm = perm or builtin_template().permutation
    x0, x1, x2 = allocation
    return apply_permutation(perm, x1), apply_permutation(perm, x2), apply_permutation(perm, x0)


# ---------------------------------------------------------------------------
# Template documents


TEMPLATE_FIELDS = ("types", "special_goods", "pair_ranks", "exceptional", "top_rank", "permutation")


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

    for field in TEMPLATE_FIELDS:
        _require(field in doc, f"missing field '{field}'", "$")
    for field in doc:
        _require(field in TEMPLATE_FIELDS, f"unknown field '{field}'", f"$.{field}")

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

    # Support labels join type names with no separator, so distinct sets
    # of types could spell one label; at most 2^8 sets to compare.
    names = tuple(name for name, _ in type_goods)
    spelled: dict[str, int] = {}
    for mask, label in enumerate(_type_set_labels(names)):
        if label in spelled:
            first, second = (
                "{" + ", ".join(name for index, name in enumerate(names) if m >> index & 1) + "}"
                for m in (spelled[label], mask)
            )
            raise TemplateError(f"type sets {first} and {second} both give the support label '{label}'", "types")
        spelled[label] = mask

    top_rank = doc["top_rank"]
    _require(_is_int(top_rank) and top_rank >= 1, "must be an integer >= 1", "top_rank")

    goods_per_type = {name: len(goods) for name, goods in type_goods}
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
            text = handle.read(MAX_TEMPLATE_CHARS + 1)
    except OSError as exc:
        raise TemplateError(str(exc), path) from None
    except UnicodeDecodeError as exc:
        raise TemplateError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", path) from None
    if len(text) > MAX_TEMPLATE_CHARS:
        raise TemplateError(f"document longer than {MAX_TEMPLATE_CHARS} characters", path)
    return load_template(text)


def bundled_instance_text() -> str:
    """The built-in instance's template document as shipped, read from
    beside this module."""
    path = os.path.join(os.path.dirname(__file__), "paper_instance.json")
    with open(path, encoding="utf-8") as handle:
        return handle.read()
