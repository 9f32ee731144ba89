"""Command-line behavior: exit codes, formats, and determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from helpers import identical_agents_doc, run_cli, source_env

from efxcheck import cli
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
    assert json.loads(out)[0] == reports[0].to_dict()


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


def test_witness_limit_past_sys_maxsize_prints_the_universe_limit(tmp_path):
    # The limit is clamped to the largest universe a report covers, so a
    # limit no slice accepts prints what 65536 prints.
    path = tmp_path / "identical.json"
    path.write_text(identical_agents_doc(), encoding="utf-8")
    for head in (["verify", "ordinal"], ["template", str(path), "verify"]):
        huge = run_cli([*head, "--witnesses", str(10**30)])
        assert huge[0] == 0, head
        assert huge[:2] == run_cli([*head, "--witnesses", "65536"])[:2], head


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
    assert f"template error at {path}, $: " in err
    assert message in err


def test_unknown_template_field_exits_two(tmp_path):
    doc = json.loads(bundled_instance_text())
    doc["extra"] = {"note": "not part of the recipe"}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert "template error at $.extra: unknown field 'extra'" in err


def test_closed_stdout_exits_quietly(tmp_path):
    # About 2 MB of JSON witnesses: more than a pipe holds, so efxcheck is
    # still writing when the reader goes away.
    path = tmp_path / "identical.json"
    path.write_text(identical_agents_doc(), encoding="utf-8")
    argv = [sys.executable, "-m", "efxcheck.cli", "template", str(path), "verify", "--format", "json", "--witnesses", "6561"]
    with subprocess.Popen(argv, env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b"[")
    assert code == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _run_entrypoint(monkeypatch, argv: list[str]) -> int:
    monkeypatch.setattr(sys, "argv", ["efxcheck", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    return exited.value.code


def test_uncaught_exception_exits_three_with_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._HANDLERS, "lemmas", broken)
    code = _run_entrypoint(monkeypatch, ["lemmas"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: handler bug" in captured.err
    assert "internal error" in captured.err


def test_entrypoint_leaves_usage_exits_and_interrupts_alone(monkeypatch, capsys):
    assert _run_entrypoint(monkeypatch, ["verify", "nonsense"]) == 2
    assert "Traceback" not in capsys.readouterr().err

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "lemmas", interrupted)
    monkeypatch.setattr(sys, "argv", ["efxcheck", "lemmas"])
    with pytest.raises(KeyboardInterrupt):
        cli.entrypoint()


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


# The public names of efxcheck/__init__, exactly: adding or removing one is
# a deliberate change to this list.
PUBLIC_NAMES = (
    "Allocation", "ApproxFactor", "Bundle", "CoverageAtom", "CoverageProfile",
    "DeficitProfile", "InstanceTemplate", "LevelValue", "OrdinalProfile", "Profile",
    "SubadditiveProfile", "TemplateError", "VerdictReport", "Witness", "allocation_from_counter",
    "builtin", "builtin_profile", "bundle_of", "cardinal", "compare_scaled",
    "compute_deficit_profile", "core", "is_efx", "level_sum_compare", "load_template",
    "load_template_file", "members", "ordinal", "strong_envy_witness", "support_value_table",
    "verify", "verify_cyclic_symmetry", "verify_lemma_first_pair", "verify_no_alpha_efx",
    "verify_no_efx", "verify_size_pattern_props", "verify_transfer",
)


def test_public_import_surface():
    import efxcheck

    assert sorted(efxcheck.__all__) == sorted(PUBLIC_NAMES)
    assert [name for name in PUBLIC_NAMES if not hasattr(efxcheck, name)] == []


def test_non_utf8_template_exits_two_naming_the_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"types": "café"}'.encode("latin-1"))
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert "template error" in err
    assert str(path) in err
    assert "UTF-8" in err


def test_json_syntax_error_exits_two_naming_the_path(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"types": ', encoding="utf-8")
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert f"template error at {path}, line 1, column" in err


def test_oversized_template_exits_two_naming_the_path(tmp_path):
    # The bundled document is valid JSON on its own, and trailing
    # whitespace keeps it so: only the length bound can reject it.
    path = tmp_path / "padded.json"
    path.write_text(bundled_instance_text() + " " * (1 << 20), encoding="utf-8")
    code, out, err = run_cli(["template", str(path), "verify"])
    assert code == 2
    assert out == ""
    assert f"template error at {path}: document longer than" in err


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
    probe = (
        "import sys, efxcheck.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_unneeded_modules_unloaded():
    # -S keeps site-packages' .pth files from importing any of these first.
    unneeded = ("dataclasses", "inspect", "csv", "importlib.resources", "typing", "fractions")
    probe = f"import sys, efxcheck.cli; print([m for m in {unneeded!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=source_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_subadditive_properties_leave_fractions_unloaded():
    # The level sums are read off integer exponent gaps, so no exact
    # rational arithmetic is loaded to check subadditivity.
    probe = (
        "import io, sys; from contextlib import redirect_stdout; from efxcheck import cli\n"
        "with redirect_stdout(io.StringIO()): code = cli.main(['properties', 'subadditive'])\n"
        "print(code, 'fractions' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=source_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["0", "False"]


def test_cli_import_builds_no_universe_column():
    probe = (
        "import efxcheck.cli; from efxcheck import core, tables, verify; "
        "print([f.__name__ for f in (core.bundle_columns, core.size_codes, core.nonempty_mask, "
        "core.rotation_column, core.holds_columns, core.reduction_index, verify._reduction_columns, "
        "verify._key_reduction, verify._bundle_members, verify._pattern_keys, "
        "verify._first_pair_candidates, core.submodular_index, core._lacks_masks, "
        "core.size_code_masks, tables._sized_bundles, tables._pair_keys, tables._triple_labels, "
        "verify._level_key_tables) "
        "if f.cache_info().currsize])"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_parser_is_built_once_and_keeps_no_option_between_requests():
    assert cli.build_parser() is cli.build_parser()
    requests = (["verify", "subadditive", "--alpha", "1/2"], ["verify", "subadditive"])
    # One process serves both requests in turn; each prints what a fresh
    # process prints.
    served = [run_cli(argv)[:2] for argv in requests]
    for argv, (code, out) in zip(requests, served):
        fresh = subprocess.run(
            [sys.executable, "-m", "efxcheck.cli", *argv], env=source_env(), capture_output=True, text=True
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert "no_alpha_efx" in served[0][1] and "no_alpha_efx" not in served[1][1]


def test_workers_help_says_the_option_is_ignored():
    _, help_text, _ = run_cli(["verify", "--help"])
    assert "--workers" in help_text and "ignored" in help_text
