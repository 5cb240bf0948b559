import contextlib
import functools
import io
import json
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersemi import (AmbientMismatch, IndexOutOfRange, NonAssociative,
                       NonMemberInput, NotCompatible, OrderCapExceeded,
                       OrderUnsupported, PreconditionViolated, SubsetFamily,
                       TheoremViolation, WorkbenchError, associative_tables,
                       downward_complete_closure, format_table, full_family,
                       singleton_cancellative_elements,
                       witness_noncancellative)
from powersemi import cli as cli_module
from powersemi import zoo
from powersemi.cli import _indented_json, build_parser, run

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


@pytest.mark.parametrize("elements", ["", " "], ids=["empty", "blank"])
def test_empty_witness_set_is_a_usage_error(elements, tables, capsys):
    code, report = invoke(capsys, "witness", "--table", tables["z3"],
                          "--set", elements)
    assert code == 2
    assert report["error"] == {"type": "UsageError",
                               "message": "element set must be non-empty"}


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


@pytest.mark.parametrize("choice", [["--congruence", ",".join(["0"] * 17)],
                                    ["--generators",
                                     ",".join(map(str, range(17)))]],
                         ids=["congruence", "generators"])
def test_family_above_the_ceiling_exits_2(choice, tmp_path, capsys):
    path = tmp_path / "null17.tbl"
    path.write_text(format_table(zoo.null_semigroup(17)))
    code, report = invoke(capsys, "family", "--table", str(path), *choice)
    assert code == 2
    assert report["error"]["type"] == "OrderCapExceeded"


@pytest.mark.parametrize("command", ["family", "cancellatives", "witness"])
def test_empty_congruence_is_a_usage_error(command, tables, capsys):
    # An empty label list is a partition of no elements, not "no
    # congruence given": it must not fall back to the full family.
    extra = ["--set", "0,1"] if command == "witness" else []
    code, report = invoke(capsys, command, "--table", tables["z4"],
                          "--congruence", "", *extra)
    assert code == 2
    assert report["error"] == {"type": "UsageError",
                               "message": "expected 4 labels, got 0"}


@pytest.mark.parametrize("argv", [
    ["family", "--table", "z4", "--congruence", "0,,1,0,1"],
    ["family", "--table", "z4", "--congruence", "0,1,0,1,"],
    ["family", "--table", "z4", "--generators", "0,,2;1,3"],
    ["cancellatives", "--table", "z4", "--generators", "0,2; ,1"],
    ["witness", "--table", "z3", "--set", "0,,1"],
    ["witness", "--table", "z3", "--set", ",0,1"],
    ["nm", "--gens", "3,,5"],
    ["nm-witness", "--gens", "3,5", "--set", "3, ,5"],
], ids=["congruence-double", "congruence-trailing", "generators-double",
        "generators-blank", "set-double", "set-leading", "nm-gens",
        "nm-witness-set"])
def test_empty_token_in_a_list_is_a_usage_error(argv, tables, capsys):
    code, report = invoke(capsys, *[tables.get(a, a) for a in argv])
    assert code == 2
    assert report["error"]["type"] == "UsageError"
    assert report["error"]["message"].startswith(
        "expected comma-separated integers")


@pytest.mark.parametrize("argv", [
    ["nm", "--gens", "1_0,3"],
    ["nm", "--gens", "\u0663,5"],
    ["witness", "--table", "z3", "--set", "0,1_0"],
    ["family", "--table", "z4", "--congruence", "0,1,0,1.0"],
], ids=["nm-underscore", "nm-arabic-indic-digit", "set-underscore",
        "congruence-float"])
def test_token_that_is_not_an_ascii_integer_is_a_usage_error(argv, tables,
                                                            capsys):
    code, report = invoke(capsys, *[tables.get(a, a) for a in argv])
    assert code == 2
    assert report["error"] == {
        "type": "UsageError",
        "message": f"expected comma-separated integers, got {argv[-1]!r}"}


@pytest.mark.parametrize("argv, elements", [
    (["witness", "--table", "z3", "--set", "0,7"], [0, 7]),
    (["family", "--table", "z3", "--generators", "0,9"], [0, 9]),
    (["witness", "--table", "z3", "--set", "-1"], [-1]),
], ids=["set-above", "generators-above", "set-negative"])
def test_elements_outside_the_carrier_are_a_usage_error(argv, elements,
                                                        tables, capsys):
    code, report = invoke(capsys, *[tables.get(a, a) for a in argv])
    assert code == 2
    assert report["error"] == {
        "type": "UsageError",
        "message": f"elements {elements} outside the carrier of order 3"}


def test_signs_and_surrounding_blanks_still_parse(capsys):
    _, plain = invoke(capsys, "nm", "--gens", "3,5", "--member", "8")
    for gens, member in ((" 3, 5", "+8"), ("+3,+5 ", " 8 ")):
        code, report = invoke(capsys, "nm", "--gens", gens, "--member", member)
        assert code == 0
        assert report == plain


def test_blank_generator_chunks_are_still_skipped(tables, capsys):
    _, plain = invoke(capsys, "family", "--table", tables["z4"],
                      "--generators", "0,2;1,3")
    code, spaced = invoke(capsys, "family", "--table", tables["z4"],
                          "--generators", ";0,2;; ;1,3;")
    assert code == 0
    assert spaced == plain


def _hypothesis_failure(check, *args):
    try:
        check(*args)
    except PreconditionViolated as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("make, mask, message", [
    (lambda: full_family(zoo.left_zero(2)), 0b11,
     "NotCommutative: carrier must be commutative"),
    (lambda: SubsetFamily(zoo.cyclic_group(3), [0b111]), 0b111,
     "NotDownwardComplete: family must be downward complete"),
    (lambda: downward_complete_closure(zoo.cyclic_group(4), [0b11]), 0b11,
     None),
], ids=["left-zero2-full", "z3-whole-set-only", "z4-closure"])
def test_rule_witness_and_cancellatives_test_the_same_hypotheses(
        make, mask, message, tmp_path, monkeypatch, capsys):
    family = make()
    assert _hypothesis_failure(singleton_cancellative_elements,
                               family) == message
    assert _hypothesis_failure(witness_noncancellative, mask,
                               family) == message
    path = tmp_path / "carrier.tbl"
    path.write_text(format_table(family.semigroup))
    monkeypatch.setattr(cli_module, "_select_family",
                        lambda semigroup, args: family)
    code, report = invoke(capsys, "cancellatives", "--table", str(path))
    assert code == 0
    assert (report["singleton_rule"] is None) == (message is not None)
    assert (report["agree"] is None) == (message is not None)


@pytest.mark.parametrize("command", ["family", "cancellatives", "witness"])
def test_congruence_and_generators_together_are_a_usage_error(command, tables,
                                                              capsys):
    extra = ["--set", "0,1"] if command == "witness" else []
    with pytest.raises(SystemExit) as info:
        run([command, "--table", tables["z4"], "--congruence", "0,1,0,1",
             "--generators", "0,2", *extra])
    captured = capsys.readouterr()
    assert info.value.code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError"
    assert "not allowed with argument" in error["message"]
    assert "Traceback" not in captured.err


def test_iso_negative_with_mismatch_reason(tables, capsys):
    code, report = invoke(capsys, "iso", "--table", tables["z4"],
                          "--other", tables["klein"])
    assert code == 0
    assert report["isomorphic"] is False
    assert report["map"] is None
    assert report["fingerprint_mismatch"]


@pytest.mark.parametrize("left, right, reason", [
    (zoo.cyclic_group(2), zoo.cyclic_group(3), "order 2 != 3"),
    (zoo.left_zero(2), zoo.min_chain(2), "only one side is commutative"),
    (zoo.min_chain(4), zoo.null_semigroup(4), "only one side has an identity"),
    (zoo.cyclic_group(4), zoo.min_chain(4), "idempotent counts 1 != 4"),
], ids=["order", "commutativity", "identity", "idempotents"])
def test_iso_names_the_first_fingerprint_difference(left, right, reason,
                                                    tmp_path, capsys):
    paths = []
    for name, semigroup in (("left", left), ("right", right)):
        path = tmp_path / f"{name}.tbl"
        path.write_text(format_table(semigroup))
        paths.append(str(path))
    code, report = invoke(capsys, "iso", "--table", paths[0],
                          "--other", paths[1])
    assert code == 0
    assert report == {"schema_version": 1, "isomorphic": False, "map": None,
                      "fingerprint_mismatch": reason}


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


def test_restrict_reports_power_semigroups_that_are_not_isomorphic(tables,
                                                                   capsys):
    code, report = invoke(capsys, "restrict", "--table", tables["z4"],
                          "--other", tables["klein"])
    assert code == 0
    assert report == {"schema_version": 1, "power_isomorphic": False,
                      "power_map": None, "restricted_map": None,
                      "theorem_violation": None}


def test_restrict_reports_a_failed_restriction_as_a_finding(
        tables, monkeypatch, capsys):
    message = "singleton {0} maps to the non-singleton mask 3"

    def fail(*args):
        raise TheoremViolation(message)

    monkeypatch.setattr(cli_module, "restrict_isomorphism", fail)
    code = run(["restrict", "--table", tables["z3"], "--other", tables["z3"]])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1
    assert report["power_isomorphic"] is True
    assert report["restricted_map"] is None
    assert report["theorem_violation"] == message
    assert captured.err == ""


def test_restrict_rejects_non_cancellative_carrier(tables, capsys):
    code, report = invoke(capsys, "restrict", "--table", tables["null2"],
                          "--other", tables["null2"])
    assert code == 2
    assert report["error"]["type"] == "PreconditionViolated"


def test_restrict_rejects_a_non_isomorphic_pair_outside_the_hypotheses(
        tables, capsys):
    code, report = invoke(capsys, "restrict", "--table", tables["z2"],
                          "--other", tables["null2"])
    assert code == 2
    assert report["error"] == {"type": "PreconditionViolated",
                               "message": "target carrier is not cancellative"}


def test_restrict_checks_carrier_hypotheses_before_the_power_search(tmp_path):
    # Catalog carrier (5, 1) and a relabeling: P(S) has large sets of
    # interchangeable elements, so the power-level search can run for
    # minutes; the carriers are not cancellative, which needs no search.
    rows = [[0] * 5] * 4 + [[0, 0, 0, 0, 1]]
    perm = [4, 2, 0, 3, 1]
    inv = [perm.index(x) for x in range(5)]
    relabeled = [[perm[rows[inv[i]][inv[j]]] for j in range(5)]
                 for i in range(5)]
    paths = []
    for name, table in (("s.tbl", rows), ("t.tbl", relabeled)):
        path = tmp_path / name
        path.write_text(format_table(table))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "powersemi", "restrict", "--table", paths[0],
         "--other", paths[1]],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == {
        "type": "PreconditionViolated",
        "message": "source carrier is not cancellative"}


def test_enumerate_subcommand(tables, capsys):
    code, report = invoke(capsys, "enumerate", "--order", "2")
    assert code == 0
    assert report["classes"] == 5
    assert len(report["tables"]) == 5
    code, report = invoke(capsys, "enumerate", "--order", "2", "--labeled")
    assert report["classes"] == 8


def test_enumerate_labeled_lists_every_associative_table(capsys):
    code, report = invoke(capsys, "enumerate", "--order", "3", "--labeled")
    assert code == 0
    assert report["up_to_isomorphism"] is False
    assert report["classes"] == 113  # OEIS A023814
    assert report["tables"] == list(associative_tables(3))


def test_enumerate_order_five_needs_opt_in(capsys):
    code, report = invoke(capsys, "enumerate", "--order", "5")
    assert code == 2
    assert report["error"]["type"] == "OrderUnsupported"
    code, report = invoke(capsys, "enumerate", "--order", "5", "--labeled")
    assert code == 2
    assert report["error"]["type"] == "OrderUnsupported"


@pytest.mark.parametrize("command", ["enumerate", "probe", "prop1-check"])
def test_order_five_is_refused_before_any_table_is_generated(command,
                                                             monkeypatch,
                                                             capsys):
    def generated(n):
        raise RuntimeError(f"order-{n} tables generated without the opt-in")

    catalog = cli_module._catalog
    monkeypatch.setattr(catalog, "canonical_tables", generated)
    # An empty cache, so a run that got past the opt-in would generate.
    monkeypatch.setattr(catalog, "_catalog",
                        functools.lru_cache(catalog._catalog.__wrapped__))
    code, report = invoke(capsys, command, "--order", "5")
    assert code == 2
    assert report["error"] == {
        "type": "OrderUnsupported",
        "message": "order 5 runs for a while; pass --long-running to opt in"}


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


@pytest.mark.parametrize("gens, message", [
    ("2,4", "generators [2, 4] have gcd 2; the complement in N would be "
            "infinite"),
    ("0,3", "generators must be positive integers"),
], ids=["gcd", "zero"])
def test_nm_bad_generators_keep_the_package_error_type(gens, message, capsys):
    code, report = invoke(capsys, "nm", "--gens", gens)
    assert code == 2
    assert report["error"] == {"type": "PreconditionViolated",
                               "message": message}


def test_nm_rejects_generators_past_the_horizon_bound(capsys):
    start = time.perf_counter()
    code, report = invoke(capsys, "nm", "--gens", "2000,2001")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "OrderCapExceeded"


def test_nm_witness_subcommand(capsys):
    code, report = invoke(capsys, "nm-witness", "--gens", "2,3",
                          "--set", "2,3")
    assert code == 0
    assert report["case"] == "Case2"
    assert report["multiplier"] == [2, 3]
    assert report["lhs"] == [4, 5, 6]
    assert report["rhs"] == [4, 6]


def test_nm_witness_above_the_member_ceiling_exits_2(capsys):
    members = ",".join(str(8 + 7 * i) for i in range(65))
    code, report = invoke(capsys, "nm-witness", "--gens", "3,5",
                          "--set", members)
    assert code == 2
    assert report["error"]["type"] == "OrderCapExceeded"


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


def test_empty_out_path_is_a_usage_error(tables, capsys):
    code = run(["validate", "--table", tables["z2"], "--out", ""])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError"
    assert error["message"].startswith("cannot write report to : ")
    assert captured.err == f"error: {error['message']}\n"


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


ERROR_PATH_CASES = [
    (IndexOutOfRange("entry 5 at (0, 1) is outside [0, 2)"), {}),
    (NonAssociative(0, 1, 1), {"triple": [0, 1, 1]}),
    (NotCompatible(0, 2, 1, 1), {"quadruple": [0, 2, 1, 1]}),
    (AmbientMismatch("subset lives over a different ambient"), {}),
    (OrderCapExceeded("order 7 is above the cap"), {}),
    (OrderUnsupported("order 6 is outside 1..5"), {}),
    (PreconditionViolated("carrier must be cancellative"), {}),
    (TheoremViolation("probe map fails re-verification"), {}),
    (NonMemberInput("4 is not a member of the monoid"), {}),
    (cli_module.UsageError("element set must be non-empty"), {}),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_path_cases_cover_every_workbench_error():
    assert ({type(exc) for exc, _ in ERROR_PATH_CASES}
            == set(_subclasses(WorkbenchError)))


@pytest.mark.parametrize("exc, witness", ERROR_PATH_CASES,
                         ids=[type(exc).__name__ for exc, _ in ERROR_PATH_CASES])
def test_every_package_error_keeps_its_type_in_the_report(exc, witness,
                                                          monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_module._catalog, "global_iso_probe", fail)
    code = run(["probe", "--order", "2"])
    captured = capsys.readouterr()
    finding = isinstance(exc, TheoremViolation)
    assert code == (1 if finding else 2)
    error = json.loads(captured.out)["error"]
    assert list(error) == ["type", "message", *witness]
    assert error == {"type": type(exc).__name__, "message": str(exc),
                     **witness}
    prefix = "theorem violation: " if finding else "error: "
    assert captured.err == f"{prefix}{exc}\n"


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
    ["free-check", "--trials", "100001"],
    ["prop1-check", "--order", "2", "--closures", "1001"],
    ["free-check", "--trials", "1_000"],
    ["enumerate", "--order", "\u0663"],
    ["prop1-check", "--order", "2", "--seed", "1_0"],
    ["probe", "--order", "2", "--jobs", "1_0"],
], ids=["alphabet", "member", "trials", "closures", "power-cap", "probe-cap",
        "alphabet-max", "max-word-len-max", "max-set-size-max", "trials-max",
        "closures-max", "trials-underscore", "order-arabic-indic-digit",
        "seed-underscore", "jobs-underscore"])
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


FUZZ_TABLES = {
    "z2": Z2, "z3": Z3, "z4": Z4, "klein": KLEIN, "bad": BAD, "null2": NULL2,
    "lz3": format_table(zoo.left_zero(3)),
    "null6": format_table(zoo.null_semigroup(6)),
    "null7": format_table(zoo.null_semigroup(7)),
    "huge": "2\n0 99999999999999999999\n0 0\n",
    "ragged": "2\n0 1\n1\n", "words": "two\n", "empty": "",
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    tables = []
    for name, text in FUZZ_TABLES.items():
        path = root / f"{name}.tbl"
        path.write_text(text)
        tables.append(str(path))
    tables.append(str(root / "missing.tbl"))
    outs = [str(root / "report.json"), str(root / "missing" / "r.json"),
            str(root)]
    return tables, outs


JUNK = ["", "x", " ", "1.5", "-", "0x10", "1e3", "--", "\u0663"]


def integers(low, high):
    """Option values: mostly integers in [low, high], else numbers far
    outside any range or text that is not an integer."""
    return st.one_of(*[st.integers(low, high)] * 6,
                     st.integers(-2**70, 2**70),
                     st.sampled_from(JUNK)).map(str)


def element_lists(high):
    """Comma-separated element lists: mostly elements in [0, high], else
    negative or huge numbers and junk between the commas."""
    item = st.one_of(*[st.integers(0, high)] * 6,
                     st.integers(-2**70, 2**70), st.sampled_from(JUNK))
    return st.lists(item, max_size=4).map(lambda xs: ",".join(map(str, xs)))


def amounts(high):
    """Values of an option that sets the amount of work: small ones, ones
    on both sides of its upper bound high, and integers() junk."""
    return st.one_of(st.integers(-3, 20).map(str),
                     *[st.integers(high - 2, high + 2).map(str)] * 2,
                     integers(0, 20))


# The options that set the amount of work, and their upper bounds.
WORK = {"--trials": cli_module.TRIALS_MAX,
        "--closures": cli_module.CLOSURES_MAX}


@contextlib.contextmanager
def small_work(calls):
    """Record in calls the amount of work each run asks for, and do at
    most 20 of it, so that every example stays fast."""
    campaign = cli_module._freewords.cancellativity_campaign
    check = cli_module._catalog.singleton_characterization_check

    def small_campaign(**kwargs):
        calls.append(("--trials", kwargs["trials"]))
        return campaign(**{**kwargs, "trials": min(kwargs["trials"], 20)})

    def small_check(order, **kwargs):
        amount = kwargs["closures_per_semigroup"]
        calls.append(("--closures", amount))
        return check(order, **{**kwargs,
                               "closures_per_semigroup": min(amount, 20)})

    with mock.patch.object(cli_module._freewords, "cancellativity_campaign",
                           small_campaign), \
            mock.patch.object(cli_module._catalog,
                              "singleton_characterization_check",
                              small_check):
        yield


@pytest.mark.parametrize("argv", [["free-check", "--trials"],
                                  ["prop1-check", "--order", "1",
                                   "--closures"]], ids=["trials", "closures"])
def test_work_option_at_its_bound_runs_and_above_it_starts_no_work(argv,
                                                                  capsys):
    option = argv[-1]
    high = WORK[option]
    calls = []
    with small_work(calls):
        assert run(argv + [str(high)]) == 0
        with pytest.raises(SystemExit) as info:
            run(argv + [str(high + 1)])
    assert info.value.code == 2
    assert calls == [(option, high)]


def argv_for(command, tables, outs):
    """Random argv for one subcommand. --long-running is never drawn.
    Required options are drawn nine times in ten, others three in ten."""
    required = {}
    optional = {
        "--out": st.sampled_from(outs),
        "--seed": integers(-5, 5),
        "--jobs": integers(-2, 4),
    }
    if command in ("validate", "power", "family", "cancellatives", "witness",
                   "iso", "lift", "restrict"):
        required["--table"] = st.sampled_from(tables)
    if command in ("iso", "lift", "restrict"):
        required["--other"] = st.sampled_from(tables)
    if command in ("family", "cancellatives", "witness"):
        optional["--generators"] = st.lists(element_lists(4),
                                            max_size=3).map(";".join)
        optional["--congruence"] = element_lists(4)
    if command == "witness":
        required["--set"] = element_lists(3)
    if command in ("enumerate", "probe", "prop1-check"):
        required["--order"] = integers(-1, 6)
    if command == "prop1-check":
        optional["--closures"] = amounts(cli_module.CLOSURES_MAX)
    if command in ("nm", "nm-witness"):
        required["--gens"] = element_lists(40)
    if command == "nm-witness":
        required["--set"] = element_lists(60)
    if command == "nm":
        optional["--member"] = integers(-3, 100)
    if command == "free-check":
        required["--trials"] = amounts(cli_module.TRIALS_MAX)
        for name in ("--alphabet", "--max-word-len", "--max-set-size"):
            optional[name] = integers(-1, 70)
    flags = {"enumerate": ["--labeled"], "nm": ["--gaps"]}.get(command, [])

    @st.composite
    def build(draw):
        argv = [command]
        for options, tenths in ((required, 9), (optional, 3)):
            for name, values in options.items():
                if draw(st.integers(0, 9)) < tenths:
                    argv += [name, draw(values)]
        for flag in flags:
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.integers(0, 9)) == 0:
            argv.append(draw(st.sampled_from(["junk", "--nope", "-x"])))
        return argv

    return build()


COMMANDS = ["validate", "power", "family", "cancellatives", "witness", "iso",
            "lift", "restrict", "enumerate", "probe", "prop1-check", "nm",
            "nm-witness", "free-check"]


def test_fuzz_commands_cover_the_parser():
    subparsers = next(a for a in build_parser()._actions
                      if a.dest == "command")
    assert sorted(subparsers.choices) == sorted(COMMANDS)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_random_argv_keeps_the_exit_code_contract(fuzz_paths, data):
    command = data.draw(st.sampled_from(COMMANDS))
    argv = data.draw(argv_for(command, *fuzz_paths))
    out, err = io.StringIO(), io.StringIO()
    calls = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            small_work(calls):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    for option, amount in calls:
        assert 0 <= amount <= WORK[option], argv
    for option, text in zip(argv, argv[1:]):
        if option in WORK:
            try:
                out_of_range = not 0 <= int(text) <= WORK[option]
            except ValueError:
                out_of_range = True
            if out_of_range:
                assert code == 2 and calls == [], argv


REPORT_LEAVES = (st.integers(min_value=-2**70, max_value=2**70)
                 | st.floats() | st.booleans() | st.none()
                 | st.text(alphabet=st.sampled_from('ab,:[]{}"\\\n é☃'))
                 | st.text())
# json writes an int, float, bool or None key as a quoted string.
REPORT_KEYS = (st.text(max_size=4) | st.integers(min_value=-2**70,
                                                 max_value=2**70)
               | st.floats() | st.booleans() | st.none())
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(REPORT_KEYS, children, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(report=REPORTS)
def test_indented_json_equals_the_python_encoder(report):
    # Nested dicts and lists of ints, floats (NaN and infinities too),
    # bools, None and strings, empty containers included, strings full of
    # JSON punctuation, and keys of every type json converts.
    assert cli_module._indented_json(report) == json.dumps(report, indent=2)


def test_indented_json_peaks_under_three_times_its_text(capsys):
    # The 0.88 MB report of the 3,492 labeled order-4 tables; the writer
    # imported at collection, not the checked one the fixture installs.
    assert run(["enumerate", "--order", "4", "--labeled"]) == 0
    report = json.loads(capsys.readouterr().out)
    tracemalloc.start()
    try:
        text = _indented_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(report, indent=2)
    assert peak < 3 * len(text)
