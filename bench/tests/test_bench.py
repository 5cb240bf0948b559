"""Tests of the benchmark itself: run them with

    python -m pytest bench/tests

They run every workload at its smallest size, feed deliberately corrupted
outputs through the checks, and cross-check the committed catalog against
a published count the runs do not check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import fixture  # noqa: E402
import workloads  # noqa: E402
from powersemi import Morphism  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and
                   line.endswith(metric["unit"]) for line in human), name
    assert any("verdict: PASS" in line for line in human)


def test_all_runs_every_workload_with_a_verdict_each():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert sum("verdict: PASS" in line for line in human) == 4
    assert set(result["metrics"]) == {
        f"{w}/{m['name']}" for w in run.WORKLOAD_NAMES
        for m in SPEC["end_to_end"]}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "classify-order5", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fixture_digest_counts_and_tables():
    from powersemi import FiniteSemigroup
    carriers = fixture.load_catalog(FiniteSemigroup)
    assert len(carriers) == workloads.CLASSES[5]
    assert sum(s.commutative for s in carriers) == workloads.COMMUTATIVE[5]


def test_fixture_rejects_an_edited_catalog(tmp_path):
    from powersemi import FiniteSemigroup
    edited = tmp_path / "catalog.json"
    edited.write_bytes(fixture.CATALOG.read_bytes().replace(b"4]]", b"3]]", 1))
    with pytest.raises(fixture.FixtureError):
        fixture.load_catalog(FiniteSemigroup, edited)


def _canonical(table, perms, inverses):
    """Lexicographically least relabeling, computed without powersemi:
    the copy renamed by p has table p[T[p^-1 x][p^-1 y]]."""
    images = perms[:, table]
    k = np.arange(len(perms))[:, None, None]
    relabeled = images[k, inverses[:, :, None], inverses[:, None, :]]
    return min(map(tuple, relabeled.reshape(len(perms), -1).tolist()))


def test_order5_classes_up_to_anti_isomorphism_match_a001423():
    data = json.loads(fixture.CATALOG.read_text())
    perms = np.array(list(permutations(range(5))))
    inverses = np.argsort(perms, axis=1)
    forms = set()
    for rows in data["tables"]:
        table = np.array(rows)
        forms.add(min(_canonical(table, perms, inverses),
                      _canonical(table.T, perms, inverses)))
    assert len(forms) == 1160      # OEIS A001423(5)


def test_relabel_is_an_isomorphism():
    rows = json.loads(fixture.CATALOG.read_text())["tables"][1234]
    perm = [3, 0, 4, 1, 2]
    assert fixture.is_isomorphism(rows, fixture.relabel(rows, perm), perm)
    assert not fixture.is_isomorphism(rows, fixture.relabel(rows, perm),
                                      [0, 1, 2, 3, 4])


def _run(workload, program, count=3):
    outcomes, _ = run.run_ops(workload, workload.op, program, Counter(),
                              count=count)
    return run.summarize(workload, outcomes, {}, [])


def test_tampered_witness_counts_as_failed():
    program = workloads.plain_program()
    workload = workloads.ClassifyOrder5(str(ROOT), 0, program)
    real = program.witness_noncancellative

    def tampered(mask, family):
        w = real(mask, family)
        return type(w)(w.multiplier, w.lhs, w.lhs, w.case_tag)

    program.witness_noncancellative = tampered
    result = _run(workload, program)
    assert result["failed"] == result["attempted"] == 3
    assert result["correct"] is False


def test_disagreeing_classifier_counts_as_failed():
    program = workloads.plain_program()
    workload = workloads.ClassifyOrder5(str(ROOT), 0, program)
    program.singleton_cancellative_elements = \
        lambda family: {SimpleNamespace(mask=-1)}
    result = _run(workload, program, count=1)
    assert result["failed"] == 1 and result["correct"] is False


def test_wrong_probe_counts_count_as_failed():
    program = workloads.plain_program()
    workload = workloads.ProbeOrder5(str(ROOT), 0, program)
    program.global_iso_probe = lambda n, entries: {
        "order": 5, "classes": 1914, "pairs_checked": 1831741,
        "pruned_by_fingerprint": 1831736, "counterexamples": []}
    result = _run(workload, program, count=1)
    assert result["failed"] == 1 and result["correct"] is False


def test_wrong_isomorphism_counts_as_failed():
    program = workloads.plain_program()
    workload = workloads.TransferOrder5(str(ROOT), 0, program)
    real = program.find_isomorphism

    def shifted(source, target):
        found = real(source, target)
        n = source.order
        return Morphism(source, target,
                        [(found.mapping[x] + 1) % n for x in range(n)])

    program.find_isomorphism = shifted
    result = _run(workload, program)
    assert result["failed"] == 3 and result["correct"] is False


def test_deadline_miss_is_failed_but_not_wrong():
    program = workloads.plain_program()
    workload = workloads.TransferOrder5(str(ROOT), 0, program)
    workload.deadline_s = 0.05
    real = program.find_isomorphism

    def stuck(source, target):
        time.sleep(1)
        return real(source, target)

    program.find_isomorphism = stuck
    result = _run(workload, program, count=2)
    assert result["failed"] == 2 and result["correct"] is True


def _search_tail(find_isomorphism, pairs=3):
    program = workloads.plain_program()
    workload = workloads.TransferOrder5(str(ROOT), 0, program)
    workload.pairs = workload.pairs[:pairs]
    workload.search_deadline_s = 0.05
    program.find_isomorphism = find_isomorphism
    return run.search_tail(workload, program)


def test_search_tail_counts_slow_power_searches_as_misses():
    real = workloads.plain_program().find_isomorphism

    def stuck(source, target):
        if source.order > 5:
            time.sleep(1)
        return real(source, target)

    misses, wrong = _search_tail(stuck)
    assert len(misses) == 3 and wrong == []
    assert {o.detail for o in misses} <= {(5, k) for k in range(1915)}


def test_search_tail_rejects_a_wrong_power_isomorphism():
    real = workloads.plain_program().find_isomorphism

    def shifted(source, target):
        found = real(source, target)
        n = source.order
        return Morphism(source, target,
                        [(found.mapping[x] + 1) % n for x in range(n)])

    misses, wrong = _search_tail(shifted)
    assert misses == [] and len(wrong) == 3


@pytest.mark.parametrize("label, stdout, code", [
    ("enumerate", b'{"classes": 187, "tables": []}', 0),
    ("probe", json.dumps({"order": 4, "classes": 188,
                          "pairs_checked": 17578,
                          "pruned_by_fingerprint": 17577,
                          "counterexamples": []}).encode(), 0),
    ("prop1", b'{"order": 4, "seed": 0, "violations": []}', 0),
    ("probe", b"", 1),
])
def test_corrupted_cli_reports_are_rejected(label, stdout, code):
    assert workloads.check_cli_output(label, code, stdout, 0) is not None


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} \
        in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
