"""The lane kernels against the set-based oracle on doctored key tables.

Every lane kernel reads lane_translate of a lane_table, with lanes as
wide as core's sum_lane_width asks: the least w with 2R < 2^(8w - 1) for
a spread R.  The status column and the reduction maxima compare keys as
dense indices (R the number of distinct keys less one), so a table takes
one-byte lanes up to 64 distinct keys and two-byte lanes up to 256.
These tables press on that: 256 distinct keys spread over ±10^12,
exactly 64 and 65, and exactly 128 and 129, distinct keys, on either
side of the dense width switch and of the old 0x80 one, tables of mixed
widths, a constant table, an empty bundle keyed above nonempty bundles,
and negative keys.  The status column must read EFX exactly where
tests/oracles.py finds no envious triple and agent 0 feasible exactly
where it finds none of agent 0's; each reduction maximum must be the
plain maximum over the bundle's one-good reductions.

The deficit kernel needs real key gaps, so its lanes are as wide as the
largest key spread R needs.  Its cases sit on both sides of every width
switch from one byte to thirteen, and at top_rank 10**30; each must give
the oracle's deficits, d*, argmin, histogram and nonempty minimum, and
the slack test the oracle's allocations at every bound.

core's two per-good folds (subset and one-good reduction maxima) must
give the naive set maxima on random lanes at widths 1, 2 and 13, and
lane_values must read back every lane a naive shift-and-mask decode
reads, at widths 1, 2, 13 and 125.
"""

from __future__ import annotations

import json
import random

import pytest
from oracles import AGENTS, N_ALLOCATIONS, agent_feasible, deficits, efx_counters, keyed, mask, universe, unmask

from efxcheck.core import lane_table, lane_values, reduction_max, subset_max, sum_lane_width
from efxcheck.ordinal import builtin_profile, bundled_instance_text, load_template
from efxcheck.verify import _at_most, _deficit_profile, _deficits, _key_reduction, _status_column

SEED = 21


def _distinct_keys(rng: random.Random, count: int) -> tuple[int, ...]:
    """A key table with exactly count distinct keys that mostly grow with
    the bundle size, spaced 1000 apart from -50000."""
    order = sorted(range(256), key=lambda bundle: bundle.bit_count() + 2 * rng.random())
    table = [0] * 256
    for position, bundle in enumerate(order):
        table[bundle] = position * count // 256 * 1000 - 50000
    return tuple(table)


def _doctored_tables() -> dict[str, tuple[tuple[int, ...], ...]]:
    rng = random.Random(SEED)
    sizes = [bundle.bit_count() for bundle in range(256)]
    return {
        "distinct-1e12": tuple(tuple(rng.sample(range(-10**12, 10**12 + 1), 256)) for _ in AGENTS),
        "distinct-64": tuple(_distinct_keys(rng, 64) for _ in AGENTS),
        "distinct-65": tuple(_distinct_keys(rng, 65) for _ in AGENTS),
        # Two agents fit one-byte lanes and one does not, so all three
        # share two-byte lanes.
        "distinct-64-64-65": (_distinct_keys(rng, 64), _distinct_keys(rng, 64), _distinct_keys(rng, 65)),
        "distinct-128": tuple(_distinct_keys(rng, 128) for _ in AGENTS),
        "distinct-129": tuple(_distinct_keys(rng, 129) for _ in AGENTS),
        "distinct-128-128-129": (_distinct_keys(rng, 128), _distinct_keys(rng, 128), _distinct_keys(rng, 129)),
        "constant": ((7,) * 256,) * len(AGENTS),
        # Keys 0..3, with the empty bundle at 2 or 3, above some nonempty
        # bundles.
        "empty-above-nonempty": tuple(
            (rng.randint(2, 3),) + tuple(rng.randint(0, 3) for _ in range(255)) for _ in AGENTS
        ),
        # Negative keys that mostly grow with the bundle, so that some
        # allocations are EFX and some are not.
        "negative": tuple(
            tuple(10 * size - 100 + rng.randint(-15, 15) for size in sizes) for _ in AGENTS
        ),
    }


TABLES = _doctored_tables()


@pytest.mark.parametrize("name", TABLES)
def test_status_column_matches_oracle(name):
    keys = TABLES[name]
    values = keyed(keys)
    column = _status_column(keys)
    assert len(column) == N_ALLOCATIONS
    assert set(column) <= {0, 1, 2}
    assert [counter for counter, status in enumerate(column) if status == 2] == efx_counters(values)
    assert [status != 0 for status in column] == agent_feasible(values, 0)


@pytest.mark.parametrize("name", TABLES)
def test_reduction_maxima_match_naive_maximum(name):
    keys = TABLES[name]
    for table in keys:
        values, _, maxima = _key_reduction(table)
        naive = [
            max((table[mask(bundle - {g})] for g in bundle), default=min(table))
            for bundle in map(unmask, range(256))
        ]
        assert [values[m] for m in maxima] == naive


def test_doctored_tables_reach_every_status():
    # Each status occurs under some table, so the comparisons above cover
    # all three; the constant table makes every allocation EFX.
    seen = set().union(*(_status_column(keys) for keys in TABLES.values()))
    assert seen == {0, 1, 2}
    assert _status_column(TABLES["constant"]) == bytes([2]) * N_ALLOCATIONS


def test_distinct_tables_have_their_key_counts():
    for name in ("distinct-64", "distinct-65", "distinct-128", "distinct-129"):
        count = int(name.split("-")[1])
        assert {len(set(table)) for table in TABLES[name]} == {count}, name
    assert sum_lane_width(64 - 1) == 1 and sum_lane_width(65 - 1) == 2


# --- the deficit kernel --------------------------------------------------------

# The spreads on both sides of each width switch: R = 2^(8w - 2) - 1 still
# fits w bytes, and R + 1 takes w + 1.
SWITCH_SPREADS = [(1 << 8 * width - 2) + side for width in range(1, 13) for side in (-1, 0)]


def _spread_tables(spread: int) -> tuple[tuple[int, ...], ...]:
    """The built-in rank tables with each rank mapped to a key, in order:
    agent 0's keys span exactly spread, the other two agents' less, and
    every agent's keys start at its own random offset, negative or not."""
    rng = random.Random(spread)
    tables = []
    for agent, ranks in enumerate(builtin_profile().rank_tables):
        top = spread if agent == 0 else rng.randint(spread // 2, spread)
        levels = [0, *sorted(rng.randint(1, top - 1) for _ in range(6)), top]
        offset = rng.randint(-top, top)
        tables.append(tuple(offset + levels[rank] for rank in ranks))
    return tuple(tables)


def _huge_top_rank_tables() -> tuple[tuple[int, ...], ...]:
    doc = json.loads(bundled_instance_text())
    doc["top_rank"] = 10**30
    return load_template(json.dumps(doc))[1].rank_tables


def assert_deficits_match_oracle(keys, width: int) -> None:
    expected = deficits(keyed(keys))
    lanes, found_width = _deficits(keys)
    assert found_width == width
    profile = _deficit_profile(keys)
    assert profile.deficits == expected
    d_star = min(expected)
    assert profile.d_star == d_star
    assert profile.argmin_counters == tuple(c for c, d in enumerate(expected) if d == d_star)
    assert profile.argmin_count == expected.count(d_star)
    assert dict(profile.histogram) == {d: expected.count(d) for d in set(expected)}
    nonempty = [d for (bundles, _), d in zip(universe(), expected) if all(bundles)]
    assert profile.min_deficit_all_nonempty == min(nonempty)
    for bound in (0, d_star, max(expected) // 3, max(expected) - 1, max(expected), 10**40):
        assert list(_at_most(lanes, width, bound)) == [d <= bound for d in expected], bound


@pytest.mark.parametrize("spread", SWITCH_SPREADS)
def test_deficits_match_oracle_on_both_sides_of_each_width_switch(spread):
    keys = _spread_tables(spread)
    assert max(max(table) - min(table) for table in keys) == spread
    width = sum_lane_width(spread)
    assert 2 * spread < 1 << 8 * width - 1 and (width == 1 or 2 * spread >= 1 << 8 * width - 9)
    assert_deficits_match_oracle(keys, width)


def test_deficits_match_oracle_at_top_rank_1e30():
    keys = _huge_top_rank_tables()
    assert max(map(max, keys)) == 10**30
    assert_deficits_match_oracle(keys, 13)


def test_deficits_match_oracle_on_doctored_tables():
    for name in ("distinct-1e12", "constant", "empty-above-nonempty", "negative"):
        keys = TABLES[name]
        assert_deficits_match_oracle(keys, sum_lane_width(max(max(table) - min(table) for table in keys)))


# --- the per-good folds ----------------------------------------------------------


def _naive_maxima(values: list[int], related) -> list[int]:
    return [max((values[other] for other in range(256) if related(bundle, other)), default=0) for bundle in range(256)]


@pytest.mark.parametrize("width", (1, 2, 13))
def test_folds_match_naive_set_maxima(width):
    rng = random.Random(SEED + width)
    values = [rng.randrange(1 << 8 * width - 1) for _ in range(256)]
    lanes = int.from_bytes(lane_table(values, width), "big")
    folds = (
        (subset_max, lambda bundle, other: other & ~bundle == 0),
        (reduction_max, lambda bundle, other: (bundle ^ other).bit_count() == 1 and other & ~bundle == 0),
    )
    for fold, related in folds:
        assert list(lane_values(fold(lanes, width), 256, width)) == _naive_maxima(values, related), fold.__name__


@pytest.mark.parametrize("width", (1, 2, 13, 125))
def test_lane_values_match_naive_decode(width):
    rng = random.Random(SEED + width)
    count = 300
    values = [rng.randrange(1 << 8 * width) for _ in range(count)]
    lanes = 0
    for value in values:
        lanes = lanes << 8 * width | value
    full = (1 << 8 * width) - 1
    naive = [lanes >> 8 * width * (count - 1 - lane) & full for lane in range(count)]
    assert naive == values
    assert lane_values(lanes, count, width) == tuple(naive)
