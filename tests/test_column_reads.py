"""The C-level column reads against literal per-allocation references.

Witness lists are read by bytes.find from counter 0 and size breakdowns
by popcounts of a packed column ANDed with core's size code masks.  Each
read is compared with the walk it replaced: islice over compress for the
witnesses, and a Counter of the kept size codes for the tallies.  The
scaled scan's whole size breakdown is compared with a set-based reader
over tests/oracles.py at every factor of the scan reference.  Support
representatives shared across a property suite are compared with the
ones each call computes for itself, and the tables' cached type keys and
labels with a per-bundle recount.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from itertools import combinations, compress, islice

import pytest

from oracles import keyed, scaled_efx_counters, scaled_pair_groups, universe
from test_scan_reference import FACTORS, cases, level

from efxcheck import verify
from efxcheck.cardinal import ApproxFactor, compare_scaled
from efxcheck.core import GOODS, N_ALLOCATIONS, code_sizes, size_code_masks, size_codes, size_tally
from efxcheck.ordinal import builtin_profile, bundled_instance_text, load_template
from efxcheck.tables import (
    _pair_keys,
    _triple_labels,
    computed_top_triples,
    generate_all,
)
from efxcheck.verify import (
    builtin,
    check_support_collapse,
    property_reports,
    support_representatives,
    verify_no_alpha_efx,
)

LIMITS = (0, 1, 10, N_ALLOCATIONS, 10**30)


def seeded_column(seed: int, values: tuple[int, ...]) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.choice(values) for _ in range(N_ALLOCATIONS))


def find_columns() -> list[tuple[str, bytes]]:
    ends = bytearray(N_ALLOCATIONS)
    ends[0] = ends[-1] = 2
    return [
        ("no-hit", seeded_column(1, (0, 1, 3))),
        ("ends-only", bytes(ends)),
        ("every-counter", bytes([2]) * N_ALLOCATIONS),
        *((f"seed{seed}", seeded_column(seed, (0, 1, 2))) for seed in range(5)),
        ("sparse", seeded_column(9, (0,) * 40 + (2,))),
    ]


FIND_COLUMNS = find_columns()


@pytest.mark.parametrize("name, column", FIND_COLUMNS, ids=[name for name, _ in FIND_COLUMNS])
@pytest.mark.parametrize("limit", LIMITS)
def test_first_counters_match_a_compress_walk(name, column, limit):
    # islice takes no stop above sys.maxsize; no column has that many hits.
    hits = column.translate(bytes(byte == 2 for byte in range(256)))
    expected = list(islice(compress(range(N_ALLOCATIONS), hits), min(limit, sys.maxsize)))
    assert verify._first_counters(column, 2, limit) == expected
    if name == "no-hit":
        assert expected == []
    if name == "ends-only":
        assert expected == [0, N_ALLOCATIONS - 1][:limit]


def test_first_counters_give_nothing_below_zero():
    assert verify._first_counters(bytes([2]) * N_ALLOCATIONS, 2, -1) == []


def tally_columns() -> list[tuple[str, bytes]]:
    return [
        ("all-zero", bytes(N_ALLOCATIONS)),
        ("all-nonzero", seeded_column(2, tuple(range(1, 256)))),
        ("all-one", bytes([1]) * N_ALLOCATIONS),
        *((f"seed{seed}", seeded_column(seed, (0, 0, 1, 2, 255))) for seed in range(5)),
        ("sparse", seeded_column(7, (0,) * 200 + (1,))),
    ]


TALLY_COLUMNS = tally_columns()


@pytest.mark.parametrize("name, kept", TALLY_COLUMNS, ids=[name for name, _ in TALLY_COLUMNS])
def test_size_tally_matches_a_counter_of_kept_codes(name, kept):
    expected = Counter(compress(size_codes(), kept))
    tally = size_tally(kept)
    assert tally == dict(expected)
    assert 0 not in tally.values()
    if name == "all-zero":
        assert tally == {}
    if name.startswith("all-"):
        assert sum(tally.values()) == (0 if name == "all-zero" else N_ALLOCATIONS)


def test_size_code_masks_partition_the_universe():
    masks = size_code_masks()
    codes = [code for code, _ in masks]
    assert codes == sorted(Counter(size_codes()))
    assert len(codes) == 45
    union = 0
    for code, mask in masks:
        assert union & mask == 0
        union |= mask
        bits = format(mask, f"0{N_ALLOCATIONS}b")
        assert [counter for counter, bit in enumerate(bits) if bit == "1"] == [
            counter for counter, byte in enumerate(size_codes()) if byte == code
        ]
    assert union == (1 << N_ALLOCATIONS) - 1


@pytest.mark.parametrize("profile", cases("subadditive"))
def test_scaled_size_breakdown_matches_a_set_based_reader(profile):
    groups = scaled_pair_groups(keyed(profile.subadditive.exponent_tables))
    for text in FACTORS:
        alpha = ApproxFactor.parse(text)
        holds = scaled_efx_counters(groups, lambda own, reduced: compare_scaled(level(own), alpha, level(reduced)))
        sizes = Counter(tuple(map(len, universe()[counter][0])) for counter in holds)
        expected = {"alpha_efx_allocations": len(holds)}
        expected.update({f"alpha_efx({a},{b},{c})": n for (a, b, c), n in sizes.items()})
        report = verify_no_alpha_efx(profile, alpha, witness_limit=N_ALLOCATIONS)
        assert dict(report.breakdown) == expected, text
        assert all(count for key, count in report.breakdown if key.startswith("alpha_efx(")), text


def test_pattern_keys_name_each_size_code():
    keys = verify._pattern_keys("feasible0")
    for code, _ in size_code_masks():
        assert keys[code] == "feasible0(%d,%d,%d)" % code_sizes(code)


def test_support_collapse_reads_passed_representatives_as_its_own():
    for kind in ("ordinal", "coverage"):
        profile = builtin(kind)
        labels = profile.ordinal.support_labels
        tables = profile.ordinal.rank_tables if kind == "ordinal" else profile.coverage.value_tables
        representatives = support_representatives(labels)
        for table in tables:
            # Bundle 1 is its class's representative, so every other bundle
            # of that class now differs from it.
            doctored = (table[0], table[1] + 1) + table[2:]
            for subject in (table, doctored):
                assert check_support_collapse(
                    subject, labels, "claim", witness_limit=3, representatives=representatives
                ) == check_support_collapse(subject, labels, "claim", witness_limit=3)


def test_property_suites_build_support_representatives_once(monkeypatch):
    calls = []

    def counted(labels):
        calls.append(labels)
        return support_representatives(labels)

    monkeypatch.setattr(verify, "support_representatives", counted)
    for kind in ("ordinal", "coverage"):
        calls.clear()
        reports = property_reports(builtin(kind))
        assert sum(report.claim.startswith("support_collapse") for report in reports) == 3
        assert len(calls) == 1, kind


def test_cached_pair_keys_and_triple_labels_match_a_per_bundle_recount():
    template = builtin_profile().template
    type_of_good, names = template.type_of_good(), template.type_names()
    assert _pair_keys(template) == tuple(
        tuple(sorted((type_of_good[first], type_of_good[second]))) for first, second in combinations(GOODS, 2)
    )
    assert _triple_labels(template) == tuple(
        "".join(sorted((type_of_good[g] for g in triple), key=names.index)) for triple in combinations(GOODS, 3)
    )
    assert all(artifact.matches for artifact in generate_all())


def renamed(value, old: str, new: str):
    """A template document with type name old renamed to new everywhere."""
    if isinstance(value, dict):
        return {renamed(key, old, new): renamed(item, old, new) for key, item in value.items()}
    if isinstance(value, list):
        return [renamed(item, old, new) for item in value]
    return new if value == old else value


def test_triple_labels_follow_declaration_order_not_the_alphabet():
    # Renamed Z, the first declared type sorts after B and C.
    _, profile = load_template(json.dumps(renamed(json.loads(bundled_instance_text()), "A", "Z")))
    assert profile.template.type_names()[:3] == ("Z", "B", "C")
    assert list(computed_top_triples(profile, 0)) == ["BCx", "ZBC"]
    assert computed_top_triples(profile, 0)["ZBC"] == computed_top_triples(builtin_profile(), 0)["ABC"]
