"""Template documents: round-trips, validation errors, and mutations."""

import json

import pytest

from helpers import identical_agents_doc, mutated_pair_doc, run_cli
from oracles import envy_triples, first_witness, keyed

from efxcheck.core import ALL_BUNDLES
from efxcheck.ordinal import (
    TemplateError,
    builtin_profile,
    builtin_template,
    bundled_instance_text,
    load_template,
    parse_template,
    serialize_template,
)
from efxcheck.verify import Profile, verify_no_efx


def _base_doc() -> dict:
    return json.loads(serialize_template(builtin_template()))


def test_serialize_parse_roundtrip():
    template = builtin_template()
    assert parse_template(serialize_template(template)) == template


def test_bundled_document_reproduces_builtin_ranks():
    _, profile = load_template(bundled_instance_text())
    base = builtin_profile()
    assert profile.rank_tables == base.rank_tables
    assert profile.permutation == base.permutation
    for bundle in ALL_BUNDLES:
        assert profile.support_labels[bundle] == base.support_labels[bundle]


def test_missing_pair_cell_is_schema_error():
    doc = _base_doc()
    del doc["pair_ranks"]["B"]["y"]
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "pair_ranks" in str(excinfo.value)
    assert "B" in str(excinfo.value) and "y" in str(excinfo.value)


def test_asymmetric_pair_table_rejected():
    doc = _base_doc()
    doc["pair_ranks"]["C"]["B"] = 4  # conflicts with B/C = 5
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "symmetric" in str(excinfo.value)


def test_non_bijective_permutation_rejected():
    doc = _base_doc()
    doc["permutation"] = [0, 0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "bijection" in str(excinfo.value)


def test_permutation_order_must_divide_agent_count():
    doc = _base_doc()
    doc["permutation"] = [1, 0, 2, 3, 4, 5, 6, 7]  # a transposition, order 2
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "order" in str(excinfo.value)


def test_identity_permutation_allowed():
    doc = _base_doc()
    doc["permutation"] = list(range(8))
    template = parse_template(json.dumps(doc))
    assert template.permutation == tuple(range(8))


def test_rank_out_of_declared_range_rejected():
    doc = _base_doc()
    doc["pair_ranks"]["A"]["y"] = 8  # above top_rank 7
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "range" in str(excinfo.value)
    doc = _base_doc()
    doc["pair_ranks"]["A"]["y"] = 0
    with pytest.raises(TemplateError):
        parse_template(json.dumps(doc))


def test_goods_must_partition():
    doc = _base_doc()
    doc["types"][0]["goods"] = [0, 1]  # good 1 already belongs to B
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "assigned to both" in str(excinfo.value)


def test_unknown_type_in_exceptional_rejected():
    doc = _base_doc()
    doc["exceptional"].append(["A", "B", "Z"])
    with pytest.raises(TemplateError) as excinfo:
        parse_template(json.dumps(doc))
    assert "unknown type" in str(excinfo.value)


def test_unrealizable_exceptional_triple_rejected():
    doc = _base_doc()
    doc["exceptional"].append(["x", "x", "B"])  # only one x-good exists
    with pytest.raises(TemplateError):
        parse_template(json.dumps(doc))


def test_missing_field_and_bad_json_report_locations():
    with pytest.raises(TemplateError) as excinfo:
        parse_template("{}")
    assert "missing field" in str(excinfo.value)
    with pytest.raises(TemplateError) as excinfo:
        parse_template("{not json")
    assert "line" in excinfo.value.location


def test_undefined_special_pair_cells_rejected():
    doc = _base_doc()
    doc["pair_ranks"]["x"]["x"] = 1  # no two distinct x-goods exist
    with pytest.raises(TemplateError):
        parse_template(json.dumps(doc))


def test_identical_agents_template_has_efx_allocations():
    _, profile = load_template(identical_agents_doc())
    report = verify_no_efx(Profile(kind="ordinal", ordinal=profile))
    count = dict(report.breakdown)["efx_allocations"]
    # Indifferent agents accept any allocation with no empty bundle;
    # inclusion-exclusion over empty parts gives 3^8 - 3*2^8 + 3.
    assert count == 3**8 - 3 * 2**8 + 3 == 5796
    assert report.verdict == "fail"
    assert report.witnesses
    # balanced size patterns are among the accepted allocations
    balanced = envy_triples((frozenset((0, 1, 2)), frozenset((3, 4, 5)), frozenset((6, 7))))
    assert first_witness(keyed(profile.rank_tables), balanced) is None


def test_boolean_values_rejected_in_documents():
    doc = _base_doc()
    doc["special_goods"]["x"] = True
    with pytest.raises(TemplateError):
        parse_template(json.dumps(doc))
    doc = _base_doc()
    doc["pair_ranks"]["A"]["B"] = True
    with pytest.raises(TemplateError):
        parse_template(json.dumps(doc))


def test_pair_rank_mutation_changes_the_verdict_data():
    # Dropping the B/C pair rank to 2 opens up EFX allocations; the count
    # is frozen from the first run of this scan.
    _, profile = load_template(mutated_pair_doc("B", "C", 2))
    report = verify_no_efx(Profile(kind="ordinal", ordinal=profile))
    assert report.verdict == "fail"
    assert dict(report.breakdown)["efx_allocations"] == 156


def _with_type_y_renamed(name: str) -> str:
    """Built-in template with the special type y renamed everywhere."""
    return json.dumps(_base_doc()).replace('"y"', json.dumps(name))


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("AB", "type sets {A, B} and {AB} both give the support label 'AB'"),
        ("∅", "type sets {} and {∅} both give the support label '∅'"),
    ],
)
def test_type_names_spelling_one_support_label_are_rejected(tmp_path, name, message):
    # Support labels join type names with no separator; before this check
    # these documents failed support_collapse with 31 support classes.
    path = tmp_path / "ambiguous.json"
    path.write_text(_with_type_y_renamed(name), encoding="utf-8")
    code, out, err = run_cli(["template", str(path), "properties"])
    assert code == 2
    assert out == ""
    assert f"template error at types: {message}" in err


def test_renamed_type_with_distinct_labels_still_passes(tmp_path):
    path = tmp_path / "renamed.json"
    path.write_text(_with_type_y_renamed("z"), encoding="utf-8")
    code, out, _ = run_cli(["template", str(path), "properties", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    collapse = [r for r in reports if r["claim"].startswith("support_collapse")]
    assert len(collapse) == 3
    assert all(r["verdict"] == "pass" and r["breakdown"]["support_classes"] == 32 for r in collapse)
