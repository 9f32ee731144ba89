"""Reference-table regeneration with embedded expected data.

Each generator recomputes one of the built-in instance's reference tables
from the live rank and coverage machinery (never from the input
constants) and diffs it cell by cell against the expected data embedded
here.  The diff list is empty exactly when the regenerated table matches;
the tables therefore double as a regression harness for the whole
construction pipeline.
"""

from __future__ import annotations

from itertools import combinations

from .cardinal import support_value_table
from .core import GOODS, Record, bundle_of, members
from .ordinal import InstanceTemplate, OrdinalProfile, builtin_profile

# Pair-rank matrices for the three agents, row/column order A, B, C, x, y.
# Cells are keyed by canonical (sorted) type pair; (x, x) and (y, y) have
# no realizable bundle and stay absent.
EXPECTED_PAIR_RANKS: tuple[dict[tuple[str, str], int], ...] = (
    {
        ("A", "A"): 1, ("A", "B"): 2, ("A", "C"): 2, ("A", "x"): 4, ("A", "y"): 6,
        ("B", "B"): 1, ("B", "C"): 5, ("B", "x"): 1, ("B", "y"): 3,
        ("C", "C"): 1, ("C", "x"): 1, ("C", "y"): 3,
        ("x", "y"): 1,
    },
    {
        ("A", "A"): 1, ("A", "B"): 5, ("A", "C"): 2, ("A", "x"): 1, ("A", "y"): 3,
        ("B", "B"): 1, ("B", "C"): 2, ("B", "x"): 1, ("B", "y"): 3,
        ("C", "C"): 1, ("C", "x"): 4, ("C", "y"): 6,
        ("x", "y"): 1,
    },
    {
        ("A", "A"): 1, ("A", "B"): 2, ("A", "C"): 5, ("A", "x"): 1, ("A", "y"): 3,
        ("B", "B"): 1, ("B", "C"): 2, ("B", "x"): 4, ("B", "y"): 6,
        ("C", "C"): 1, ("C", "x"): 1, ("C", "y"): 3,
        ("x", "y"): 1,
    },
)

_ABC_TRIPLES = ("012", "015", "024", "045", "123", "135", "234", "345")

# Top-rank triples by agent and triple type.
EXPECTED_TOP_TRIPLES: tuple[dict[str, tuple[str, ...]], ...] = (
    {"ABC": _ABC_TRIPLES, "BCx": ("126", "156", "246", "456")},
    {"ABC": _ABC_TRIPLES, "ABx": ("016", "046", "136", "346")},
    {"ABC": _ABC_TRIPLES, "ACx": ("026", "056", "236", "356")},
)

# Support table rows: rank, sorted coverage values, sorted support labels.
EXPECTED_SUPPORT_ROWS: dict[int, tuple[tuple[int, ...], tuple[str, ...]]] = {
    0: ((0,), ("∅",)),
    1: ((21, 23, 28, 31, 35), ("A", "B", "Bx", "C", "Cx", "x", "xy", "y")),
    2: ((36,), ("AB", "AC")),
    3: ((37, 40), ("Bxy", "By", "Cxy", "Cy")),
    4: ((41, 45), ("ABx", "ACx", "Ax")),
    5: ((46,), ("BC", "BCy")),
    6: ((47, 48), ("ABxy", "ABy", "ACxy", "ACy", "Axy", "Ay")),
    7: ((49,), ("ABC", "ABCx", "ABCxy", "ABCy", "BCx", "BCxy")),
}


class TableArtifact(Record):
    table_id: str
    title: str
    rows: tuple[tuple, ...]
    diff: tuple[str, ...]

    @property
    def matches(self) -> bool:
        return not self.diff

    def to_dict(self) -> dict:
        return {
            "table": self.table_id,
            "title": self.title,
            "rows": [list(row) for row in self.rows],
            "diff": list(self.diff),
        }


def _triple_word(bundle: int) -> str:
    return "".join(str(g) for g in members(bundle))


def _type_multiset_label(goods: tuple[int, ...], template: InstanceTemplate) -> str:
    type_of_good = template.type_of_good()
    return "".join(sorted((type_of_good[g] for g in goods), key=template.type_names().index))


def computed_pair_ranks(profile: OrdinalProfile, agent: int) -> tuple[dict[tuple[str, str], int], list[str]]:
    """Pair-rank cells recomputed from rank evaluation on every
    representative two-good bundle; inconsistent cells go to the diff."""
    type_of_good = profile.template.type_of_good()
    cells: dict[tuple[str, str], set[int]] = {}
    for g1, g2 in combinations(GOODS, 2):
        key = tuple(sorted((type_of_good[g1], type_of_good[g2])))
        rank = profile.rank_tables[agent][bundle_of((g1, g2))]
        cells.setdefault(key, set()).add(rank)
    diff = [
        f"cell {key}: representatives disagree: {sorted(values)}"
        for key, values in sorted(cells.items())
        if len(values) > 1
    ]
    return {key: values.pop() for key, values in cells.items() if len(values) == 1}, diff


def _matrix_rows(cells: dict[tuple[str, str], int], names: tuple[str, ...]) -> tuple[tuple, ...]:
    rows = [("", *names)]
    for first in names:
        row = [first]
        for second in names:
            key = tuple(sorted((first, second)))
            row.append(cells.get(key, "--"))
        rows.append(tuple(row))
    return tuple(rows)


def _pair_table_artifact(table_id: str, title: str, agent: int) -> TableArtifact:
    profile = builtin_profile()
    computed, diff = computed_pair_ranks(profile, agent)
    expected = EXPECTED_PAIR_RANKS[agent]
    for key in sorted(set(expected) | set(computed)):
        have = computed.get(key)
        want = expected.get(key)
        if have != want:
            diff.append(f"cell {key}: computed {have}, expected {want}")
    return TableArtifact(table_id, title, _matrix_rows(computed, profile.template.type_names()), tuple(diff))


def table1_artifact() -> TableArtifact:
    return _pair_table_artifact("1", "Pair ranks, agent 0", 0)


def computed_top_triples(profile: OrdinalProfile, agent: int) -> dict[str, tuple[str, ...]]:
    """Triples holding the top rank for an agent, grouped by type label."""
    grouped: dict[str, list[str]] = {}
    for triple in combinations(GOODS, 3):
        if profile.rank_tables[agent][bundle_of(triple)] == profile.top_rank:
            grouped.setdefault(_type_multiset_label(triple, profile.template), []).append(
                _triple_word(bundle_of(triple))
            )
    return {label: tuple(sorted(words)) for label, words in sorted(grouped.items())}


def _top_triples_diff(agent: int, computed: dict[str, tuple[str, ...]]) -> list[str]:
    expected = EXPECTED_TOP_TRIPLES[agent]
    diff = []
    for label in sorted(set(expected) | set(computed)):
        have = computed.get(label, ())
        want = tuple(sorted(expected.get(label, ())))
        if have != want:
            diff.append(f"agent {agent}, type {label}: computed {have}, expected {want}")
    return diff


def table2_artifact() -> TableArtifact:
    computed = computed_top_triples(builtin_profile(), 0)
    rows = tuple((label, ", ".join(words)) for label, words in computed.items())
    return TableArtifact("2", "Top-rank triples, agent 0", rows, tuple(_top_triples_diff(0, computed)))


def table3_artifacts() -> list[TableArtifact]:
    return [
        _pair_table_artifact("3a", "Pair ranks, agent 0", 0),
        _pair_table_artifact("3b", "Pair ranks, agent 1", 1),
        _pair_table_artifact("3c", "Pair ranks, agent 2", 2),
    ]


def table4_artifact() -> TableArtifact:
    """Support table rows grouped by rank, with the separation ladder
    (each positive-rank row's minimum above the previous row's maximum)
    checked on the computed extrema."""
    support_rows = support_value_table()
    grouped: dict[int, tuple[set[int], set[str]]] = {}
    for label, (rank, value) in support_rows.items():
        values, labels = grouped.setdefault(rank, (set(), set()))
        values.add(value)
        labels.add(label)

    diff: list[str] = []
    for rank in sorted(set(EXPECTED_SUPPORT_ROWS) | set(grouped)):
        have_values, have_labels = grouped.get(rank, (set(), set()))
        want_values, want_labels = EXPECTED_SUPPORT_ROWS.get(rank, ((), ()))
        if tuple(sorted(have_values)) != want_values:
            diff.append(f"rank {rank} values: computed {sorted(have_values)}, expected {list(want_values)}")
        if tuple(sorted(have_labels)) != want_labels:
            diff.append(f"rank {rank} supports: computed {sorted(have_labels)}, expected {list(want_labels)}")

    ranks = sorted(grouped)
    for lower, upper in zip(ranks, ranks[1:]):
        if max(grouped[lower][0]) >= min(grouped[upper][0]):
            diff.append(
                f"separation ladder broken between ranks {lower} and {upper}: "
                f"max {max(grouped[lower][0])} >= min {min(grouped[upper][0])}"
            )

    rows = tuple(
        (rank, ", ".join(str(v) for v in sorted(grouped[rank][0])), ", ".join(sorted(grouped[rank][1])))
        for rank in ranks
    )
    return TableArtifact("4", "Support table: rank and coverage value by type support", rows, tuple(diff))


def table5_artifact() -> TableArtifact:
    profile = builtin_profile()
    rows: list[tuple] = []
    diff: list[str] = []
    for agent in range(3):
        computed = computed_top_triples(profile, agent)
        diff.extend(_top_triples_diff(agent, computed))
        for label, words in computed.items():
            rows.append((agent, label, ", ".join(words)))
    return TableArtifact("5", "Top-rank triples, all agents", tuple(rows), tuple(diff))


def generate_all() -> list[TableArtifact]:
    artifacts = [table1_artifact(), table2_artifact()]
    artifacts.extend(table3_artifacts())
    artifacts.append(table4_artifact())
    artifacts.append(table5_artifact())
    return artifacts


def render_markdown(artifact: TableArtifact) -> str:
    lines = [f"### Table {artifact.table_id}: {artifact.title}", ""]
    rows = artifact.rows
    if artifact.table_id in ("1", "3a", "3b", "3c"):
        header = rows[0]
        lines.append("| " + " | ".join(str(c) for c in header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in rows[1:]:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
    elif artifact.table_id in ("2",):
        lines.append("| type | triples |")
        lines.append("|---|---|")
        for label, words in rows:
            lines.append(f"| {label} | {words} |")
    elif artifact.table_id == "4":
        lines.append("| rank | coverage values | type supports |")
        lines.append("|---|---|---|")
        for rank, values, labels in rows:
            lines.append(f"| {rank} | {values} | {labels} |")
    else:
        lines.append("| agent | type | triples |")
        lines.append("|---|---|---|")
        for agent, label, words in rows:
            lines.append(f"| {agent} | {label} | {words} |")
    lines.append("")
    if artifact.diff:
        lines.append("Diffs:")
        lines.extend(f"- {entry}" for entry in artifact.diff)
    else:
        lines.append("No diffs against expected data.")
    return "\n".join(lines)
