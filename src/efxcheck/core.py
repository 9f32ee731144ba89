"""Fixed universe of goods, bundles and allocations, and the columns over it.

Eight goods are indexed 0..7.  A bundle is a bitmask over good indices,
so membership, union, and difference are single integer operations and
the whole bundle space is the range 0..255.  An allocation is an ordered
triple of pairwise-disjoint bundles covering all eight goods; the
3^8 = 6561 complete allocations are enumerated in base-3 counter order so
every scan is reproducible run to run.  bundle_columns() decodes them
once, as three byte columns holding X0, X1 and X2 of every allocation in
counter order, and a counter's allocation is the three bytes at its
index.  Every other universe column is derived from those three, and
depends on the universe and a relabeling alone, never on a valuation:
each allocation's bundle sizes as one size code, the mask of
allocations with no empty bundle, each bundle column widened to a lane
column, and, per relabeling, each allocation's rotated counter.  Each
is built on first use, never at import, and claims read them with
bytes.translate, compress, Counter and whole-column integer arithmetic
instead of recounting per allocation.

A lane column holds one byte per allocation (or per bundle) in the low
byte of a big-endian 16-bit lane, over a zero pad byte.  Translated
through a 256-entry byte table and read by int.from_bytes, it becomes one
integer whose lanes a single addition or subtraction updates at once: as
long as every lane's result stays in [0, 65535], no carry or borrow
crosses into the next lane.  bundle_lanes() gives X0, X1 and X2 in that
form; efxcheck.verify builds the EFX status column on it.  Which goods
share a type, and which permutation relabels them, is a template's to
say (efxcheck.ordinal).

All values here are immutable, and Record is the base of every value
type the other modules define.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable
from functools import lru_cache
from operator import add

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


# ---------------------------------------------------------------------------
# Universe columns


# Each bundle's number of goods, as a bytes.translate table.
BUNDLE_SIZES = bytes(map(int.bit_count, ALL_BUNDLES))


@lru_cache(maxsize=1)
def bundle_columns() -> tuple[bytes, bytes, bytes]:
    """The bundles X0, X1 and X2 of every allocation, in counter order, as
    three columns of 6561 bytes.  This is the only decode of the
    universe, built digit by digit: good g sets bit g in the column of
    the agent it goes to, and its digit is the most significant so far,
    so each column grows to three copies of itself, one with the bit."""
    columns = []
    for agent in range(N_AGENTS):
        column = b"\0"
        for g in GOODS:
            bit = 1 << g
            # Every byte so far is below bit, so adding bit is a translate.
            with_good = column.translate(bytes(range(bit, 256)) + bytes(bit))
            column = b"".join(with_good if owner == agent else column for owner in range(N_AGENTS))
        columns.append(column)
    return tuple(columns)


def allocation_from_counter(counter: int) -> Allocation:
    """Allocation in which good g goes to the agent named by base-3 digit g."""
    if not 0 <= counter < N_ALLOCATIONS:
        raise ValueError(f"allocation counter out of range: {counter}")
    x0, x1, x2 = bundle_columns()
    return x0[counter], x1[counter], x2[counter]


def code_sizes(code: int) -> tuple[int, int, int]:
    """The bundle sizes (|X0|, |X1|, |X2|) that a size code stands for."""
    first, second = divmod(code, N_GOODS + 1)
    return first, second, N_GOODS - first - second


def size_code_table(rule: Callable[[int, int, int], int]) -> bytes:
    """A bytes.translate table sending each size code to rule(|X0|, |X1|,
    |X2|), a byte; bytes that are no size code map to 0."""
    return bytes(rule(*sizes) if sizes[2] >= 0 else 0 for sizes in map(code_sizes, range(256)))


@lru_cache(maxsize=1)
def size_codes() -> bytes:
    """Each allocation's bundle sizes as one byte, in counter order: the
    size code 9·|X0| + |X1|, so |X2| = 8 − |X0| − |X1|.  The two terms
    are at most 72 and 8, so the columns add as integers with no carry
    from one byte into the next."""
    x0, x1, _ = bundle_columns()
    nine_sizes = bytes(map((N_GOODS + 1).__mul__, BUNDLE_SIZES))
    codes = int.from_bytes(x0.translate(nine_sizes), "big") + int.from_bytes(x1.translate(BUNDLE_SIZES), "big")
    return codes.to_bytes(N_ALLOCATIONS, "big")


@lru_cache(maxsize=1)
def nonempty_mask() -> bytes:
    """1 for each allocation with no empty bundle, else 0, in counter
    order."""
    return size_codes().translate(size_code_table(lambda *sizes: int(all(sizes))))


def lane_column(column: bytes) -> bytes:
    """A byte column widened to big-endian 16-bit lanes: each byte in the
    low byte of its lane, a zero pad byte above it."""
    lanes = bytearray(2 * len(column))
    lanes[1::2] = column
    return bytes(lanes)


@lru_cache(maxsize=1)
def bundle_lanes() -> tuple[bytes, bytes, bytes]:
    """The bundle columns X0, X1 and X2 as lane columns (see
    lane_column), 2 · 6561 bytes each."""
    return tuple(map(lane_column, bundle_columns()))


@lru_cache(maxsize=2)
def rotation_column(images: tuple[Bundle, ...]) -> array:
    """Each allocation's rotated counter, in counter order, for the
    relabeling that sends bundle B to images[B]: the counter of
    (images[X1], images[X2], images[X0]).

    A counter is the sum of agent(g) * 3^g, so the image's counter is
    w[images[X2]] + 2 * w[images[X0]], where w[B] (the sum of 3^g over g
    in B) is B's binary digits read in base 3.  Stored as unsigned
    shorts, 13 KB a column; the cache holds the two relabelings used
    last."""
    weights = [int(f"{image:b}", 3) for image in images]
    doubled = [2 * weight for weight in weights]
    x0, _, x2 = bundle_columns()
    return array("H", map(add, map(weights.__getitem__, x2), map(doubled.__getitem__, x0)))
