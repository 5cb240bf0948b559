import json
import subprocess
import sys
import time

import pytest

from powersemi import TheoremViolation, format_table
from powersemi import cli as cli_module
from powersemi import zoo
from powersemi.cli import run

Z2 = "2\n0 1\n1 0\n"
Z3 = "3\n0 1 2\n1 2 0\n2 0 1\n"
Z4 = format_table(zoo.cyclic_group(4))
KLEIN = format_table(zoo.klein_four())
BAD = "2\n1 1\n0 1\n"  # (0*0)*0 = 0 but 0*(0*0) = 1
NULL2 = "2\n0 0\n0 0\n"


@pytest.fixture
def tables(tmp_path):
    paths = {}
    for name, text in (("z2", Z2), ("z3", Z3), ("z4", Z4),
                       ("klein", KLEIN), ("bad", BAD), ("null2", NULL2)):
        p = tmp_path / f"{name}.tbl"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_good_table(tables, capsys):
    code, report = invoke(capsys, "validate", "--table", tables["z3"])
    assert code == 0
    assert report["schema_version"] == 1
    assert report["order"] == 3
    assert report["commutative"] is True
    assert report["identity"] == 0


def test_validate_bad_table_exits_2_with_triple(tables, capsys):
    code, report = invoke(capsys, "validate", "--table", tables["bad"])
    assert code == 2
    assert report["error"]["type"] == "NonAssociative"
    i, j, k = report["error"]["triple"]
    rows = [[1, 1], [0, 1]]
    assert rows[rows[i][j]][k] != rows[i][rows[j][k]]


def test_validate_missing_file(tables, capsys):
    code, report = invoke(capsys, "validate", "--table", tables["z2"] + ".nope")
    assert code == 2
    assert "error" in report


def test_validate_entry_beyond_64_bits_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.tbl"
    path.write_text("2\n0 99999999999999999999\n0 0\n")
    code, report = invoke(capsys, "validate", "--table", str(path))
    assert code == 2
    assert report["error"]["type"] == "IndexOutOfRange"


def test_power_subcommand(tables, capsys):
    code, report = invoke(capsys, "power", "--table", tables["z2"])
    assert code == 0
    assert report["order"] == 3
    assert report["table"] == [[0, 1, 2], [1, 0, 2], [2, 2, 2]]


def test_family_closure_and_congruence_agree(tables, capsys):
    code, by_gens = invoke(capsys, "family", "--table", tables["z4"],
                           "--generators", "0,2;1,3")
    assert code == 0
    code, by_cong = invoke(capsys, "family", "--table", tables["z4"],
                           "--congruence", "0,1,0,1")
    assert code == 0
    assert by_gens["members"] == by_cong["members"]
    assert len(by_gens["members"]) == 6
    assert by_gens["downward_complete"] is True


def test_family_full_default(tables, capsys):
    code, report = invoke(capsys, "family", "--table", tables["z2"])
    assert code == 0
    assert report["members"] == [1, 2, 3]


def test_cancellatives_agreement(tables, capsys):
    code, report = invoke(capsys, "cancellatives", "--table", tables["z3"])
    assert code == 0
    assert report["bruteforce"] == [1, 2, 4]
    assert report["singleton_rule"] == [1, 2, 4]
    assert report["agree"] is True


def test_cancellatives_on_noncommutative_reports_bruteforce_only(tmp_path, capsys):
    path = tmp_path / "lz.tbl"
    path.write_text(format_table(zoo.left_zero(2)))
    code, report = invoke(capsys, "cancellatives", "--table", str(path))
    assert code == 0
    assert report["singleton_rule"] is None
    assert report["agree"] is None


def test_witness_subcommand(tables, capsys):
    code, report = invoke(capsys, "witness", "--table", tables["z3"],
                          "--set", "0,1")
    assert code == 0
    assert report["case"] == "Case2"
    assert report["multiplier"] == 3
    assert report["lhs"] == 7
    assert report["rhs"] == 5


def test_witness_usage_error_on_singleton(tables, capsys):
    code, report = invoke(capsys, "witness", "--table", tables["z3"],
                          "--set", "0")
    assert code == 2
    assert report["error"]["type"] == "PreconditionViolated"


@pytest.mark.parametrize("command", ["power", "cancellatives"])
def test_materialization_ceiling_needs_no_flag(command, tmp_path, capsys):
    six = tmp_path / "null6.tbl"
    six.write_text(format_table(zoo.null_semigroup(6)))
    code, report = invoke(capsys, command, "--table", str(six))
    assert code == 0
    seven = tmp_path / "null7.tbl"
    seven.write_text(format_table(zoo.null_semigroup(7)))
    code, report = invoke(capsys, command, "--table", str(seven))
    assert code == 2
    assert report["error"]["type"] == "OrderCapExceeded"


def test_iso_negative_with_mismatch_reason(tables, capsys):
    code, report = invoke(capsys, "iso", "--table", tables["z4"],
                          "--other", tables["klein"])
    assert code == 0
    assert report["isomorphic"] is False
    assert report["map"] is None
    assert report["fingerprint_mismatch"]


def test_iso_positive(tables, capsys):
    code, report = invoke(capsys, "iso", "--table", tables["z3"],
                          "--other", tables["z3"])
    assert code == 0
    assert report["isomorphic"] is True
    assert report["map"] == [0, 1, 2]
    assert report["fingerprint_mismatch"] is None


def test_lift_subcommand(tables, capsys):
    code, report = invoke(capsys, "lift", "--table", tables["z3"],
                          "--other", tables["z3"])
    assert code == 0
    assert report["power_map"] == list(range(7))


def test_restrict_round_trip(tables, capsys):
    code, report = invoke(capsys, "restrict", "--table", tables["z3"],
                          "--other", tables["z3"])
    assert code == 0
    assert report["power_isomorphic"] is True
    assert report["theorem_violation"] is None
    restricted = report["restricted_map"]
    assert sorted(restricted) == [0, 1, 2]


def test_restrict_rejects_non_cancellative_carrier(tables, capsys):
    code, report = invoke(capsys, "restrict", "--table", tables["null2"],
                          "--other", tables["null2"])
    assert code == 2
    assert report["error"]["type"] == "PreconditionViolated"


def test_enumerate_subcommand(tables, capsys):
    code, report = invoke(capsys, "enumerate", "--order", "2")
    assert code == 0
    assert report["classes"] == 5
    assert len(report["tables"]) == 5
    code, report = invoke(capsys, "enumerate", "--order", "2", "--labeled")
    assert report["classes"] == 8


def test_enumerate_order_five_needs_opt_in(capsys):
    code, report = invoke(capsys, "enumerate", "--order", "5")
    assert code == 2
    assert report["error"]["type"] == "OrderUnsupported"


def test_probe_subcommand(tables, capsys):
    code, report = invoke(capsys, "probe", "--order", "2")
    assert code == 0
    assert report["pairs_checked"] == 10
    assert report["counterexamples"] == []
    assert "elapsed_ms" in report and "pruned_by_fingerprint" in report


def test_probe_and_enumerate_accept_jobs(capsys):
    code, report = invoke(capsys, "probe", "--order", "3", "--jobs", "2")
    assert code == 0 and report["pairs_checked"] == 276
    code, report = invoke(capsys, "enumerate", "--order", "3", "--jobs", "2")
    assert code == 0 and report["classes"] == 24


def test_prop1_check_subcommand(capsys):
    code, report = invoke(capsys, "prop1-check", "--order", "2", "--seed", "3")
    assert code == 0
    assert report["violations"] == []


@pytest.mark.parametrize("argv", [["--order", "0"], ["--order", "-1"],
                                  ["--order", "6", "--long-running"]])
def test_prop1_check_rejects_unsupported_orders(argv, capsys):
    code, report = invoke(capsys, "prop1-check", *argv)
    assert code == 2
    assert report["error"]["type"] == "OrderUnsupported"


def test_nm_subcommand(capsys):
    code, report = invoke(capsys, "nm", "--gens", "3,5", "--gaps")
    assert code == 0
    assert report["gaps"] == [1, 2, 4, 7]
    assert report["frobenius"] == 7
    code, report = invoke(capsys, "nm", "--gens", "2,3", "--member", "1")
    assert report["member"] == {"value": 1, "is_member": False}
    assert "gaps" not in report


def test_nm_usage_error_on_bad_generators(capsys):
    code, report = invoke(capsys, "nm", "--gens", "2,4")
    assert code == 2


def test_nm_rejects_generators_past_the_horizon_bound(capsys):
    start = time.perf_counter()
    code, report = invoke(capsys, "nm", "--gens", "2000,2001")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "UsageError"


def test_nm_witness_subcommand(capsys):
    code, report = invoke(capsys, "nm-witness", "--gens", "2,3",
                          "--set", "2,3")
    assert code == 0
    assert report["case"] == "Case2"
    assert report["multiplier"] == [2, 3]
    assert report["lhs"] == [4, 5, 6]
    assert report["rhs"] == [4, 6]


def test_free_check_subcommand(capsys):
    code, report = invoke(capsys, "free-check", "--alphabet", "3",
                          "--trials", "200", "--seed", "7")
    assert code == 0
    assert report["violations"] == []
    assert report["disjointness_failures"] == []


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["free-check", "--trials", "150", "--seed", "3",
                "--out", str(first)]) == 0
    assert run(["free-check", "--trials", "150", "--seed", "3",
                "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("table", ["z2", "bad"])
def test_unwritable_out_path_is_a_usage_error(table, tables, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = run(["validate", "--table", tables[table], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError"
    assert error["message"].startswith(f"cannot write report to {out}: ")
    assert captured.err == f"error: {error['message']}\n"
    assert not out.exists()


def test_out_path_with_a_nul_byte_is_a_usage_error(tables, capsys):
    code = run(["validate", "--table", tables["z2"], "--out", "a\0b.json"])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError"
    assert error["message"].startswith("cannot write report to a\0b.json: ")


def test_theorem_violation_exits_1_with_json_error(monkeypatch, capsys):
    def violate(*args, **kwargs):
        raise TheoremViolation("probe map fails re-verification")

    monkeypatch.setattr(cli_module._catalog, "global_iso_probe", violate)
    code = run(["probe", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "schema_version": 1,
        "error": {"type": "TheoremViolation",
                  "message": "probe map fails re-verification"}}
    assert captured.err == \
        "theorem violation: probe map fails re-verification\n"


def test_internal_error_exits_3_with_json_error(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli_module._catalog, "global_iso_probe", crash)
    code = run(["probe", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "schema_version": 1,
        "error": {"type": "RuntimeError", "message": "unexpected state"}}
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith(
        "RuntimeError: unexpected state\ninternal error: unexpected state\n")


def test_module_entry_point(tables):
    proc = subprocess.run(
        [sys.executable, "-m", "powersemi", "validate", "--table",
         tables["z2"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2


@pytest.mark.parametrize("argv", [
    ["free-check", "--alphabet", "1"],
    ["nm", "--gens", "3,5", "--member", "-1"],
    ["free-check", "--trials", "-3"],
    ["prop1-check", "--order", "2", "--closures", "-1"],
    ["power", "--table", "z2", "--cap", "7"],
    ["probe", "--order", "2", "--cap", "7"],
    ["free-check", "--alphabet", "65"],
    ["free-check", "--max-word-len", "65"],
    ["free-check", "--max-set-size", "65"],
], ids=["alphabet", "member", "trials", "closures", "power-cap", "probe-cap",
        "alphabet-max", "max-word-len-max", "max-set-size-max"])
def test_rejected_argv_exits_2_with_json_error(argv, tables, capsys):
    argv = [tables.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["type"] == "UsageError"
    assert "Traceback" not in captured.err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        run(["does-not-exist"])
    assert info.value.code == 2
