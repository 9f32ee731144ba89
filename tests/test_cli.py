"""Command-line behavior: exit codes, formats, and determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import identical_agents_doc, run_cli

from efxcheck.cli import expected_no_alpha_efx
from efxcheck.cardinal import ApproxFactor
from efxcheck.ordinal import bundled_instance_text
from efxcheck.verify import VerdictReport


def test_verify_ordinal_exits_zero_and_reports_count():
    code, out, _ = run_cli(["verify", "ordinal"])
    assert code == 0
    assert "0 EFX / 6561" in out


def test_verify_all_profiles_pass():
    for kind in ("ordinal", "subadditive", "coverage"):
        code, out, _ = run_cli(["verify", kind])
        assert code == 0, out


def test_verify_alpha_above_base_expects_absence():
    code, out, _ = run_cli(["verify", "subadditive", "--alpha", "9/10"])
    assert code == 0
    assert "no scaled-EFX allocation" in out


def test_verify_alpha_half_expects_existence():
    code, out, _ = run_cli(["verify", "subadditive", "--alpha", "1/2"])
    assert code == 0  # existence is the expected finding at 1/2
    assert "scaled-EFX EXISTS" in out
    assert "{" in out  # at least one witness allocation listed


def test_alpha_expectation_rule():
    assert expected_no_alpha_efx(ApproxFactor.parse("9/10"))
    assert expected_no_alpha_efx(ApproxFactor.parse("lambda^1/2"))
    assert not expected_no_alpha_efx(ApproxFactor.parse("1/2"))
    assert not expected_no_alpha_efx(ApproxFactor.parse("lambda^1"))


def test_bad_alpha_syntax_exits_two():
    code, _, err = run_cli(["verify", "subadditive", "--alpha", "nonsense"])
    assert code == 2
    assert "bad factor" in err


def test_alpha_out_of_range_exits_two():
    code, _, _ = run_cli(["verify", "subadditive", "--alpha", "3/2"])
    assert code == 2


def test_alpha_on_ordinal_profile_exits_two():
    code, _, err = run_cli(["verify", "ordinal", "--alpha", "9/10"])
    assert code == 2
    assert "subadditive" in err


def test_unknown_profile_exits_two():
    code, _, _ = run_cli(["verify", "nonsense"])
    assert code == 2


def test_properties_commands_pass():
    for kind in ("ordinal", "subadditive", "coverage"):
        code, _, _ = run_cli(["properties", kind])
        assert code == 0


def test_lemmas_command_passes():
    code, out, _ = run_cli(["lemmas"])
    assert code == 0
    assert "size_pattern_propositions" in out
    assert "universe[(2,2,4)]=420" in out
    assert "universe[(2,3,3)]=560" in out


def test_alpha_star_command():
    code, out, _ = run_cli(["alpha-star"])
    assert code == 0
    assert "2^(-1/6)" in out
    assert "0.8908987181" in out
    assert "d* = 1" in out


def test_tables_command_passes_all_formats():
    code, out, _ = run_cli(["tables"])
    assert code == 0
    assert "All tables match" in out
    code, out, _ = run_cli(["tables", "--format", "json"])
    assert code == 0
    artifacts = json.loads(out)
    assert [a["table"] for a in artifacts] == ["1", "2", "3a", "3b", "3c", "4", "5"]
    assert all(a["diff"] == [] for a in artifacts)
    code, out, _ = run_cli(["tables", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["table", "row", "cells"]


def test_json_reports_roundtrip():
    code, out, _ = run_cli(["verify", "ordinal", "--format", "json"])
    assert code == 0
    reports = [VerdictReport.from_dict(entry) for entry in json.loads(out)]
    assert len(reports) == 1
    assert reports[0].passed
    assert json.loads(out)[0] == reports[0].to_dict(deterministic=True)


def test_csv_reports_parse():
    code, out, _ = run_cli(["verify", "subadditive", "--alpha", "1/2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "universe", "checked", "verdict", "witnesses", "breakdown", "elapsed_ms"]
    assert rows[1][0] == "no_efx_subadditive"
    assert rows[2][0] == "no_alpha_efx(1/2)"
    assert rows[2][3] == "fail"


def test_workers_produce_byte_identical_json():
    base = None
    for workers in ("1", "2"):
        code, out, _ = run_cli(["verify", "ordinal", "--format", "json", "--workers", workers])
        assert code == 0
        base = out if base is None else base
        assert out == base


def test_witness_limit_flag():
    code, out, _ = run_cli(["verify", "subadditive", "--alpha", "1/2", "--format", "json", "--witnesses", "3"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports[1]["witnesses"]) == 3


def test_template_verify_bundled_instance(tmp_path):
    path = tmp_path / "builtin.json"
    path.write_text(bundled_instance_text(), encoding="utf-8")
    code, out, _ = run_cli(["template", str(path), "verify"])
    assert code == 0
    assert "0 EFX / 6561" in out


def test_template_verify_identical_agents(tmp_path):
    path = tmp_path / "identical.json"
    path.write_text(identical_agents_doc(), encoding="utf-8")
    code, out, _ = run_cli(["template", str(path), "verify"])
    assert code == 0  # suite completed; the verdict itself is data
    assert "5796 EFX / 6561" in out


def test_template_properties_runs(tmp_path):
    path = tmp_path / "identical.json"
    path.write_text(identical_agents_doc(), encoding="utf-8")
    code, out, _ = run_cli(["template", str(path), "properties"])
    assert code == 0
    assert "monotone(rank[0])" in out


def test_template_malformed_file_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"types": []', encoding="utf-8")
    code, _, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert "template error" in err
    assert "line" in err


def test_template_missing_cell_reports_location(tmp_path):
    doc = json.loads(bundled_instance_text())
    del doc["pair_ranks"]["B"]["y"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert "pair_ranks" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"top_rank": ' + "7" * 5000 + "}", "integer literal longer than"),
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_unparseable_template_exits_two_at_document_root(tmp_path, text, message):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert "template error at $" in err
    assert message in err


def test_missing_template_file_exits_two(tmp_path):
    code, _, err = run_cli(["template", str(tmp_path / "absent.json"), "verify"])
    assert code == 2
    assert "template error" in err


def test_wall_time_goes_to_stderr_not_stdout():
    code, out, err = run_cli(["verify", "ordinal", "--format", "json"])
    assert code == 0
    assert "wall time" in err
    assert "wall time" not in out
    json.loads(out)  # stdout stays pure JSON


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "verify" in out and "lemmas" in out


def test_missing_command_exits_two():
    code, _, _ = run_cli([])
    assert code == 2


def test_public_import_surface():
    import efxcheck

    for name in ("verify_no_efx", "LevelValue", "rank0", "load_template", "builtin"):
        assert hasattr(efxcheck, name)


def test_non_utf8_template_exits_two_naming_the_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"types": "café"}'.encode("latin-1"))
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert "template error" in err
    assert str(path) in err
    assert "UTF-8" in err


def test_oversized_alpha_is_rejected_before_scanning():
    for factor in ("1e-9999", "1e-99999999", "lambda^1e-9999", "lambda^1e9999"):
        code, out, err = run_cli(["verify", "subadditive", "--alpha", factor])
        assert code == 2, factor
        assert out == ""
        assert "bad factor" in err


def test_alpha_with_thousands_of_digits_still_verifies():
    # Far below the level base scaled-EFX allocations exist; lambda^t with
    # t < 1 lies above it, where none do.
    for factor, verdict in (("1e-4000", "fail"), ("lambda^4000", "fail"), ("lambda^1e-4000", "pass")):
        code, out, _ = run_cli(["verify", "subadditive", "--alpha", factor, "--format", "csv"])
        assert code == 0, factor
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[2][0].startswith("no_alpha_efx(")
        assert rows[2][3] == verdict, factor
    assert str(ApproxFactor.parse("1e-4000")) == "1/1" + "0" * 4000


def test_cli_import_loads_no_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, efxcheck.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_workers_help_says_the_option_is_ignored():
    _, help_text, _ = run_cli(["verify", "--help"])
    assert "--workers" in help_text and "ignored" in help_text
