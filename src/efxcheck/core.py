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
each allocation's bundle sizes as one size code, each size code's
allocations as bits, the mask of allocations with no empty bundle, and,
per relabeling, each allocation's rotated counter.  Each is built on
first use, never at import, and claims read them with bytes.translate,
bytes.find, popcounts and whole-column integer arithmetic instead of
recounting per allocation.

A lane integer holds one value per allocation (or per bundle) in
big-endian lanes of width bytes, first allocation first: lane_table
writes values as lanes, padded to 256 entries, and lane_translate reads
such a table through a byte column, one translate per byte plane, so one
addition or subtraction updates every lane at once.  As long as every
lane's result stays in [0, 2^(8·width) − 1], no carry or borrow crosses
into the next lane.  sum_lane_width(R) is the one width rule: the least
w with 2R < 2^(8w − 1), so that for values a, b in [0, R] and any low in
[R, top − 1], top the lane's top bit, a + low − b lies in [0, 2·top − 2]
and never borrows.  With low = top − 1, bit 8w − 1 of the lane is then
exactly a > b; with a + top − b it is exactly a >= b, which is how
lane_max keeps the larger lane of two lane integers.  Keys compared only
by order are read as dense indices (each key's position among its
table's distinct keys), so R is the number of distinct keys less one and
a table of up to 64 distinct keys takes one-byte lanes; key gaps need
real key differences, so those lanes are as wide as the spread of the
values needs.  Python's big integers let one implementation serve every
width.  lane_values reads the lanes back as ints and lane_tops reads
their top bits as bytes.

Two folds over the 256 bundle lanes share one per-good step, which
shifts the lane of a bundle's one-good reduction onto the bundle's lane,
masks it to the bundles that hold the good, and folds it in with
lane_max: subset_max chains the step over the goods, and reduction_max
takes one unchained step per good, for the maxima over a bundle's
one-good reductions.  efxcheck.ordinal folds its rank recipe
with subset_max and efxcheck.verify its reduction maxima with
reduction_max.  submodular_index() lists the 1792 (S, g, h) triples of
the local submodularity test as four byte columns.  Which goods share a
type, and which permutation relabels them, is a template's to say
(efxcheck.ordinal).

All values here are immutable, and Record is the base of every value
type the other modules define.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import repeat
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


def permutation_power(perm: tuple[int, ...], exponent: int) -> tuple[int, ...]:
    result = IDENTITY_PERMUTATION
    for _ in range(exponent):
        result = tuple(map(perm.__getitem__, result))
    return result


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


# A bytes.translate table from a byte to the character "1" when it is not
# 0, else "0": int(column.translate(_BIT_CHARS), 2) packs a column into one
# bit per allocation, counter 0 the most significant.
_BIT_CHARS = b"0" + b"1" * 255


@lru_cache(maxsize=1)
def size_code_masks() -> tuple[tuple[int, int], ...]:
    """Each of the 45 size codes, ascending, with the bits of the
    allocations that have it, packed as _BIT_CHARS packs a column.  A size
    code is below 2^7, so each mask is an AND of the 7 bit planes of
    size_codes(), each packed once, or of their complements."""
    codes = size_codes()
    full = (1 << N_ALLOCATIONS) - 1
    planes = [int(codes.translate(bytes(b"01"[byte >> k & 1] for byte in range(256))), 2) for k in range(7)]
    masks = []
    for code in (9 * first + second for first in range(N_GOODS + 1) for second in range(N_GOODS + 1 - first)):
        mask = full
        for k, plane in enumerate(planes):
            mask &= plane if code >> k & 1 else full ^ plane
        masks.append((code, mask))
    return tuple(masks)


def size_tally(kept: bytes) -> dict[int, int]:
    """The allocations whose byte in kept is not 0, counted by size code:
    kept packed into one bit per allocation, ANDed with each of the size
    code masks and popcounted.  Codes with no such allocation are left
    out."""
    bits = int(kept.translate(_BIT_CHARS), 2)
    return {code: count for code, mask in size_code_masks() if (count := (bits & mask).bit_count())}


@lru_cache(maxsize=1)
def nonempty_mask() -> bytes:
    """1 for each allocation with no empty bundle, else 0, in counter
    order: each bundle column translated to 1 for a nonempty bundle, the
    three results ANDed as integers."""
    nonempty = b"\0" + b"\1" * FULL_BUNDLE
    x0, x1, x2 = (int.from_bytes(column.translate(nonempty), "big") for column in bundle_columns())
    return (x0 & x1 & x2).to_bytes(N_ALLOCATIONS, "big")


def lane_flags(count: int, width: int) -> int:
    """The lane integer of count lanes of width bytes, each holding only
    its top bit."""
    return int.from_bytes((b"\x80" + bytes(width - 1)) * count, "big")


def lane_max(first: int, second: int, flags: int, width: int) -> int:
    """Lane by lane, the larger of two lane integers whose lanes of width
    bytes hold values below their top bit; flags is lane_flags over at
    least as many lanes.  first + flags − second keeps every lane in
    [1, 2 · top − 1], so no borrow crosses a lane and the lane's top bit
    is exactly first >= second.  Lanes past both operands stay 0."""
    first_wins = ((first + flags - second) & flags) >> (8 * width - 1)
    return second ^ ((first ^ second) & first_wins * ((1 << 8 * width) - 1))


def sum_lane_width(spread: int) -> int:
    """The least lane width w with 2 · spread < 2^(8w − 1): lanes that
    hold a sum of two values in [0, spread], or such a sum plus the top
    bit less another, with no carry or borrow across a lane.  Spreads up
    to 63 take one byte."""
    return ((2 * spread).bit_length() + 8) // 8


def lane_table(values: Iterable[int], width: int) -> bytes:
    """Values below 2^(8 · width) as big-endian lanes of width bytes,
    padded with zero lanes to 256 entries: a table that lane_translate
    reads through a byte column."""
    if width == 1:
        lanes = bytes(values)
    else:
        lanes = b"".join(map(int.to_bytes, values, repeat(width), repeat("big")))
    return lanes + bytes(256 * width - len(lanes))


def lane_translate(column: bytes, table: bytes, width: int) -> int:
    """The lane integer whose lanes are table's entries at each byte of
    column: one translate per byte of a lane, interleaved."""
    if width == 1:
        return int.from_bytes(column.translate(table), "big")
    lanes = bytearray(width * len(column))
    for k in range(width):
        lanes[k::width] = column.translate(table[k::width])
    return int.from_bytes(lanes, "big")


def lane_values(lanes: int, count: int, width: int) -> tuple[int, ...]:
    """The count lanes of a lane integer as ints, first lane first: the
    bytes themselves in one-byte lanes, else one int.from_bytes a lane."""
    raw = lanes.to_bytes(count * width, "big")
    if width == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[k : k + width], "big") for k in range(0, len(raw), width))


def lane_tops(lanes: int, count: int, width: int) -> bytes:
    """1 for each of the count lanes whose top bit is set, else 0."""
    bits = (lanes & lane_flags(count, width)) >> 8 * width - 1
    return bits.to_bytes(count * width, "big")[width - 1 :: width]


@lru_cache(maxsize=1)
def holds_columns() -> tuple[bytes, ...]:
    """Per good g, a byte per bundle in integer order: 1 when the bundle
    holds g, else 0.  Runs of 2^g bundles without g and 2^g with it."""
    return tuple((bytes(1 << g) + b"\1" * (1 << g)) * (128 >> g) for g in GOODS)


@lru_cache(maxsize=4)
def _good_masks(width: int) -> tuple[int, ...]:
    """Per good g, a lane integer over the 256 bundles, lanes of width
    bytes, with every bit set in the lanes whose bundle holds g and 0 in
    the others."""
    holds = lane_table((0, (1 << 8 * width) - 1), width)
    return tuple(lane_translate(column, holds, width) for column in holds_columns())


def _good_fold(lanes: int, width: int, chained: bool) -> int:
    """The per-good step that subset_max and reduction_max share, for
    lanes over the 256 bundles below their top bit.  Per good g, the lane
    of B − g lies 2^g lanes above B's: shifted down onto B's lane and
    masked to the bundles that hold g, it folds in with lane_max.
    Chained, each step reads the previous step's result, so after the
    last a lane holds the largest lane of every subset of its bundle;
    unchained, each reads the input, and the fold starts from 0."""
    flags = lane_flags(len(ALL_BUNDLES), width)
    folded = lanes if chained else 0
    for g, holds in enumerate(_good_masks(width)):
        source = folded if chained else lanes
        folded = lane_max(folded, source >> (8 * width << g) & holds, flags, width)
    return folded


def subset_max(lanes: int, width: int) -> int:
    """Lane by lane over the 256 bundles, the largest lane of a subset of
    the bundle, for lanes below their top bit."""
    return _good_fold(lanes, width, chained=True)


def reduction_max(lanes: int, width: int) -> int:
    """Lane by lane over the 256 bundles, the largest lane of a one-good
    reduction of the bundle, 0 for the empty bundle, for lanes below
    their top bit."""
    return _good_fold(lanes, width, chained=False)


@lru_cache(maxsize=1)
def submodular_index() -> tuple[bytes, bytes, bytes, bytes]:
    """Four byte columns over the 1792 triples (S, g, h) with goods g < h
    outside S, S ascending and then (g, h) in order: S + g, S + h,
    S + g + h and S."""
    triples = [
        (bundle | 1 << g, bundle | 1 << h, bundle | 1 << g | 1 << h, bundle)
        for bundle in ALL_BUNDLES
        for g in GOODS
        for h in GOODS[g + 1 :]
        if not bundle >> g & 1 and not bundle >> h & 1
    ]
    return tuple(map(bytes, zip(*triples)))  # type: ignore[return-value]


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
