"""Randomly damaged template documents end in a verdict or a template error.

Each example makes one to three random edits to the shipped
paper_instance.json: a value replaced by one of the wrong type, a huge
int, NaN or an empty container, and an object key deleted, renamed or
duplicated.  The document is written out and run through
`template <path> verify` and `template <path> properties` in-process.
Each run must exit 0 (the document was valid, and the verdict is data) or
2 with a `template error at` message; never 1, which is kept for
built-in discrepancies, and never an uncaught exception, which the
console script reports as exit 3.
"""

from __future__ import annotations

import json

from helpers import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from efxcheck.ordinal import bundled_instance_text


class Raw(str):
    """A token written into the document as it is: NaN, or an integer
    literal longer than JSON readers take."""


class Pairs(list):
    """A JSON object as a list of [key, value] pairs, so that a key can be
    renamed in place or appear twice."""


def _load(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: Pairs(map(list, pairs)))


def _dump(node) -> str:
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(value)}" for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return json.dumps(node)


def _containers(node, found: list) -> list:
    """Every array and object in the document, node first."""
    if isinstance(node, list):
        found.append(node)
        for item in node:
            _containers(item[1] if isinstance(node, Pairs) else item, found)
    return found


# Wrong types, huge ints, NaN and empty containers, each new when drawn.
REPLACEMENTS = st.one_of(
    st.sampled_from([None, True, False, "A", "", 0, -1, 1.5, 10**30, -(10**30), 2**63]),
    st.sampled_from([Raw("NaN"), Raw("1" + "0" * 5000)]),
    st.builds(list),
    st.builds(Pairs),
)
EDITS = st.sampled_from(["replace", "delete", "rename", "duplicate"])
NEW_KEYS = st.sampled_from(["A", "x", "types", "top_rank", "", "∅", "extra", "pair_ranks"])


@st.composite
def damaged_documents(draw) -> str:
    document = _load(bundled_instance_text())
    for _ in range(draw(st.integers(1, 3))):
        container = draw(st.sampled_from(_containers(document, [])))
        if not container:
            continue
        index = draw(st.integers(0, len(container) - 1))
        edit = draw(EDITS) if isinstance(container, Pairs) else "replace"
        if edit == "delete":
            del container[index]
        elif edit == "rename":
            container[index][0] = draw(NEW_KEYS)
        elif edit == "duplicate":
            key, _ = container[index]
            container.insert(draw(st.integers(0, len(container))), [key, draw(REPLACEMENTS)])
        else:
            value = draw(REPLACEMENTS)
            if isinstance(container, Pairs):
                container[index][1] = value
            else:
                container[index] = value
    return _dump(document)


def test_the_undamaged_document_round_trips():
    assert json.loads(_dump(_load(bundled_instance_text()))) == json.loads(bundled_instance_text())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(damaged_documents())
def test_damaged_documents_end_in_a_verdict_or_a_template_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "damaged.json"
    path.write_text(text, encoding="utf-8")
    for action in ("verify", "properties"):
        code, _, err = run_cli(["template", str(path), action])
        assert code in (0, 2), (action, text)
        if code == 2:
            assert "template error at" in err, (action, text)
