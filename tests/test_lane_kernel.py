"""The lane kernel against the set-based oracle on doctored key tables.

The status column and the reduction maxima compare keys as dense indices
in the lanes of big integers: one-byte lanes when every table has at
most 128 distinct keys, two-byte lanes otherwise.  These tables press on
that: 256 distinct keys spread over ±10^12, exactly 128 and exactly 129
distinct keys on either side of the width switch, a constant table, an
empty bundle keyed above nonempty bundles, and negative keys.  The status
column must read EFX exactly where tests/oracles.py finds no envious
triple and agent 0 feasible exactly where it finds none of agent 0's;
each reduction maximum must be the plain maximum over the bundle's
one-good reductions.
"""

from __future__ import annotations

import random

import pytest
from oracles import AGENTS, N_ALLOCATIONS, agent_feasible, efx_counters, keyed, mask, universe, unmask

from efxcheck.core import bundle_columns, lane_column
from efxcheck.verify import _key_reduction, _lane_width, _status_column

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
        "distinct-128": tuple(_distinct_keys(rng, 128) for _ in AGENTS),
        "distinct-129": tuple(_distinct_keys(rng, 129) for _ in AGENTS),
        # Two agents fit one-byte lanes and one does not, so all three
        # share two-byte lanes.
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


def test_lane_width_switches_above_128_distinct_keys():
    for name, widths in (("distinct-128", {1}), ("distinct-129", {2}), ("distinct-128-128-129", {1, 2})):
        tables = TABLES[name]
        assert {len(set(table)) for table in tables} <= {128, 129}
        assert {_lane_width(_key_reduction(table)[1]) for table in tables} == widths, name


@pytest.mark.parametrize("width", (1, 2))
def test_bundle_lanes_match_oracle_decode(width):
    for agent, column in enumerate(bundle_columns()):
        lanes = lane_column(column, width)
        assert len(lanes) == width * N_ALLOCATIONS
        for pad in range(width - 1):
            assert lanes[pad::width] == bytes(N_ALLOCATIONS)
        assert list(lanes[width - 1 :: width]) == [mask(bundles[agent]) for bundles, _ in universe()]
