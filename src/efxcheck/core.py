"""Fixed universe of goods, bundles, allocations, and enumerators.

Eight goods are indexed 0..7.  A bundle is a bitmask over good indices,
so membership, union, and difference are single integer operations and
the whole bundle space is the range 0..255.  An allocation is an ordered
triple of pairwise-disjoint bundles covering all eight goods; the
3^8 = 6561 complete allocations are enumerated in base-3 counter order so
every scan is reproducible run to run.  all_allocations() decodes them
once, and every counter lookup and scan reads that decode.  Which goods
share a type, and which permutation relabels them, is a template's to say
(efxcheck.ordinal).

All values here are immutable, and Record is the base of every value
type the other modules define.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

Bundle = int
Allocation = tuple[int, int, int]

N_AGENTS = 3
N_GOODS = 8
GOODS: tuple[int, ...] = tuple(range(N_GOODS))

FULL_BUNDLE: Bundle = (1 << N_GOODS) - 1
ALL_BUNDLES: tuple[Bundle, ...] = tuple(range(1 << N_GOODS))
N_ALLOCATIONS: int = N_AGENTS**N_GOODS
IDENTITY_PERMUTATION: tuple[int, ...] = tuple(range(N_GOODS))


class Record:
    """Base of an immutable value type.

    A subclass names its fields by class annotations, in order, and gives
    a field a default by a class attribute of the same name.  Fields are
    passed by position or keyword; __post_init__ then runs, so a subclass
    can validate them.  Assigning or deleting an attribute raises
    AttributeError.  Two records are equal when they are of the same
    class with equal fields, and a record hashes as its field tuple, so
    it is never equal to a plain tuple.  replace() gives a changed copy.

    It stands in for frozen dataclasses, which cost a fresh process more
    to import and apply than the rest of efxcheck's import together.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{name} missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name} got unknown or repeated fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, field: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {field!r} of a {type(self).__qualname__}")

    def __delattr__(self, field: str) -> None:
        raise AttributeError(f"cannot delete field {field!r} of a {type(self).__qualname__}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


def bundle_of(goods: Iterable[int]) -> Bundle:
    """Bitmask bundle holding the given good indices."""
    mask = 0
    for g in goods:
        if not 0 <= g < N_GOODS:
            raise ValueError(f"good index out of range: {g}")
        mask |= 1 << g
    return mask


def members(bundle: Bundle) -> tuple[int, ...]:
    """Good indices of a bundle in ascending order."""
    return tuple(g for g in GOODS if bundle >> g & 1)


@lru_cache(maxsize=1)
def one_good_reductions() -> tuple[tuple[Bundle, ...], ...]:
    """The one-good reductions of every bundle, goods in ascending order."""
    return tuple(tuple(bundle ^ (1 << g) for g in members(bundle)) for bundle in ALL_BUNDLES)


def apply_permutation(perm: tuple[int, ...], bundle: Bundle) -> Bundle:
    """Elementwise image of a bundle under a permutation of the goods."""
    image = 0
    m = bundle
    while m:
        low = m & -m
        image |= 1 << perm[low.bit_length() - 1]
        m ^= low
    return image


def compose_permutations(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation mapping g to outer[inner[g]]."""
    return tuple(outer[inner[g]] for g in GOODS)


def permutation_power(perm: tuple[int, ...], exponent: int) -> tuple[int, ...]:
    result = IDENTITY_PERMUTATION
    for _ in range(exponent):
        result = compose_permutations(perm, result)
    return result


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * N_GOODS
    for g, image in enumerate(perm):
        inverse[image] = g
    return tuple(inverse)


def is_permutation(perm: tuple[int, ...]) -> bool:
    return len(perm) == N_GOODS and sorted(perm) == list(GOODS)


def is_allocation(parts: tuple[int, ...]) -> bool:
    """True when the triple is pairwise disjoint and covers all goods."""
    if len(parts) != N_AGENTS:
        return False
    x0, x1, x2 = parts
    return (x0 | x1 | x2) == FULL_BUNDLE and (x0 & x1) == 0 and (x0 & x2) == 0 and (x1 & x2) == 0


@lru_cache(maxsize=1)
def all_allocations() -> tuple[Allocation, ...]:
    """All 6561 allocations in counter order, decoded once, digit by digit
    (good 7 is the most significant base-3 digit).  This is the only
    counter-to-allocation decode; it is built on first use, never at
    import."""
    allocations = [(0, 0, 0)]
    for g in reversed(GOODS):
        bit = 1 << g
        allocations = [
            extended
            for x0, x1, x2 in allocations
            for extended in ((x0 | bit, x1, x2), (x0, x1 | bit, x2), (x0, x1, x2 | bit))
        ]
    return tuple(allocations)


def allocation_from_counter(counter: int) -> Allocation:
    """Allocation in which good g goes to the agent named by base-3 digit g."""
    if not 0 <= counter < N_ALLOCATIONS:
        raise ValueError(f"allocation counter out of range: {counter}")
    return all_allocations()[counter]


def counter_of_allocation(allocation: Allocation) -> int:
    """Inverse of allocation_from_counter."""
    if not is_allocation(allocation):
        raise ValueError(f"not a complete allocation: {allocation}")
    counter = 0
    for g in reversed(GOODS):
        if allocation[0] >> g & 1:
            digit = 0
        elif allocation[1] >> g & 1:
            digit = 1
        else:
            digit = 2
        counter = counter * 3 + digit
    return counter


def enumerate_allocations() -> Iterator[Allocation]:
    """All 6561 complete allocations, exactly once, in counter order."""
    return iter(all_allocations())
