import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import powersemi
import powersemi.semigroups as semigroups_module
from powersemi import (FiniteSemigroup, IndexOutOfRange, NonAssociative,
                       NotCompatible, all_congruences,
                       congruence_from_partition, format_table, parse_table)
from powersemi import zoo
from powersemi.semigroups import (_label_vectors, _profile_rows,
                                  _semigroups_from_stack, _table_stacks,
                                  _validate)

from oracles import (naive_is_associative, scalar_element_queries,
                     semigroup_state)


def test_z2_is_a_commutative_monoid():
    sgr = FiniteSemigroup([[0, 1], [1, 0]])
    assert sgr.order == 2
    assert sgr.commutative
    assert sgr.identity == 0


def test_null_semigroup_valid_without_identity():
    sgr = FiniteSemigroup([[0, 0], [0, 0]])
    assert sgr.commutative
    assert sgr.identity is None


def test_all_two_by_two_tables_split_eight_associative_eight_not():
    accepted = 0
    for cells in itertools.product(range(2), repeat=4):
        rows = [list(cells[:2]), list(cells[2:])]
        if naive_is_associative(rows, 2):
            accepted += 1
            sgr = FiniteSemigroup(rows)
            assert sgr.rows == rows
        else:
            with pytest.raises(NonAssociative) as info:
                FiniteSemigroup(rows)
            i, j, k = info.value.triple
            assert rows[rows[i][j]][k] != rows[i][rows[j][k]]
    assert accepted == 8


def test_rejects_out_of_range_entries_and_bad_shapes():
    with pytest.raises(IndexOutOfRange):
        FiniteSemigroup([[0, 2], [0, 1]])
    with pytest.raises(IndexOutOfRange):
        FiniteSemigroup([[0, 1]])
    with pytest.raises(IndexOutOfRange):
        FiniteSemigroup([[-1, 0], [0, 0]])


@pytest.mark.parametrize("entry", [
    2**63, 99999999999999999999, -2**63 - 1,
    pytest.param(np.array([[0, 2**63], [0, 0]], dtype=np.uint64),
                 id="uint64_array")])
def test_entries_beyond_64_bits_are_out_of_range(entry):
    table = entry if isinstance(entry, np.ndarray) else [[0, entry], [0, 0]]
    # The message names the entry as given, not its int64 wrap-around.
    with pytest.raises(IndexOutOfRange,
                       match=r"64 bits|entry 9223372036854775808 at"):
        FiniteSemigroup(table)


@pytest.mark.parametrize("table", [[[0.7]], [[0.0, 1.0], [1.0, 0.0]],
                                   [["0"]], [[None]],
                                   [[0, 0.5], [0, 0]], np.array([[0.0]])],
                         ids=["float", "integral_float", "string", "none",
                              "one_float_entry", "float_array"])
def test_non_integer_entries_are_out_of_range(table):
    with pytest.raises(IndexOutOfRange):
        FiniteSemigroup(table)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, ">i8"])
def test_integer_arrays_are_accepted(dtype):
    sgr = FiniteSemigroup(np.array([[0, 1], [1, 0]], dtype=dtype))
    assert sgr == zoo.cyclic_group(2)


def test_order_cap_is_sixty_four():
    n = 65
    with pytest.raises(IndexOutOfRange):
        FiniteSemigroup([[0] * n for _ in range(n)])
    # 64 itself is fine
    assert FiniteSemigroup([[0] * 64 for _ in range(64)]).order == 64


def test_associativity_holds_on_every_triple_of_accepted_tables():
    for sgr in (zoo.cyclic_group(4), zoo.klein_four(), zoo.min_chain(3),
                zoo.left_zero(3), zoo.null_semigroup(4)):
        assert naive_is_associative(sgr.rows, sgr.order)


def test_cancellativity_of_group_elements():
    z2 = zoo.cyclic_group(2)
    assert z2.is_cancellative(1)
    assert z2.is_cancellative_semigroup()


def test_null_semigroup_has_no_cancellative_elements():
    null2 = zoo.null_semigroup(2)
    assert not null2.is_cancellative(0)
    assert null2.cancellative_elements() == []


def test_left_zero_splits_left_and_right_cancellativity():
    lz = zoo.left_zero(2)
    assert not lz.is_left_cancellative(0)
    assert lz.is_right_cancellative(0)


def test_element_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        zoo.cyclic_group(2).is_cancellative(2)


def test_all_cancellative_iff_latin_square():
    for sgr in (zoo.cyclic_group(3), zoo.klein_four(), zoo.min_chain(2),
                zoo.null_semigroup(3), zoo.right_zero(2)):
        latin = all(
            len(set(sgr.rows[a])) == sgr.order
            and len({row[a] for row in sgr.rows}) == sgr.order
            for a in range(sgr.order))
        assert sgr.is_cancellative_semigroup() == latin


def test_index_and_period():
    z4 = zoo.cyclic_group(4)
    assert z4.index_and_period(1) == (1, 4)
    assert z4.index_and_period(0) == (1, 1)
    null2 = zoo.null_semigroup(2)
    assert null2.index_and_period(1) == (2, 1)


def test_parity_partition_is_a_congruence_on_z4():
    z4 = zoo.cyclic_group(4)
    cong = congruence_from_partition(z4, [0, 1, 0, 1])
    assert cong.classes == ((0, 2), (1, 3))


def test_identity_partition_is_always_a_congruence():
    for sgr in (zoo.cyclic_group(3), zoo.left_zero(3), zoo.min_chain(4)):
        cong = congruence_from_partition(sgr, list(range(sgr.order)))
        assert len(cong.classes) == sgr.order


def test_bad_partition_rejected_with_a_checkable_quadruple():
    z3 = zoo.cyclic_group(3)
    with pytest.raises(NotCompatible) as info:
        congruence_from_partition(z3, [0, 0, 1])
    x1, y1, x2, y2 = info.value.quadruple
    labels = [0, 0, 1]
    assert labels[x1] == labels[y1] and labels[x2] == labels[y2]
    assert labels[z3.rows[x1][x2]] != labels[z3.rows[y1][y2]]


def test_all_congruences_against_direct_partition_scan():
    z4 = zoo.cyclic_group(4)
    found = all_congruences(z4)
    # independent recount: try every label vector directly
    def compatible(labels):
        for x1 in range(4):
            for y1 in range(4):
                for x2 in range(4):
                    for y2 in range(4):
                        if labels[x1] == labels[y1] and labels[x2] == labels[y2]:
                            if labels[z4.rows[x1][x2]] != labels[z4.rows[y1][y2]]:
                                return False
        return True

    seen = set()
    for labels in itertools.product(range(4), repeat=4):
        if labels[0] != 0:
            continue
        norm = []
        mapping = {}
        for lab in labels:
            mapping.setdefault(lab, len(mapping))
            norm.append(mapping[lab])
        seen.add((tuple(norm), compatible(norm)))
    expected = {labels for labels, ok in seen if ok}
    assert {c.labels for c in found} == expected


def test_table_text_round_trip():
    z3 = zoo.cyclic_group(3)
    text = format_table(z3)
    assert parse_table(text) == z3.rows


def test_table_text_comments_and_blank_lines():
    text = "# a comment\n2\n\n0 1  # row of 0\n1 0\n"
    assert parse_table(text) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("text", ["", "x", "2\n0 1", "2\n0 1 1\n1 0",
                                  "0", "1\n0\n0", "\u0661\n0",
                                  "0_1\n0",
                                  "2\n0 \u0661\n1 0", "2\n0 1_0\n1 0"])
def test_table_text_malformed(text):
    with pytest.raises(ValueError):
        parse_table(text)


def test_semigroup_equality_and_hash():
    a = zoo.cyclic_group(3)
    b = zoo.cyclic_group(3)
    assert a == b and hash(a) == hash(b)
    assert a != zoo.min_chain(3)


def test_table_is_read_only():
    sgr = zoo.cyclic_group(2)
    with pytest.raises(ValueError):
        sgr.table[0, 0] = 1


# Two non-associative order-3 tables. The first fails first at (2, 2, 1)
# and the second at (0, 0, 1), which holds in the first table, so a
# validator that took the row-major first triple over all tables would
# blame the wrong table.
NON_ASSOCIATIVE_3 = ([[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                     [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def order3_stack_with(tables, at):
    """The 24 order-3 catalog tables with the given tables inserted from
    position at onwards, one every other slot."""
    stack = [e.semigroup.rows for e in powersemi.enumerate_semigroups(3)]
    for offset, table in enumerate(tables):
        stack.insert(at + 2 * offset, table)
    return np.array(stack)


def test_stacked_tables_equal_one_at_a_time(catalog):
    for entries in catalog.values():
        tables = np.stack([e.semigroup.table for e in entries])
        for dtype in (np.int64, np.uint8, np.uint64):
            batch = _semigroups_from_stack(*_validate(tables.astype(dtype)))
            assert [semigroup_state(s) for s in batch] == \
                [semigroup_state(FiniteSemigroup(t)) for t in tables]
    assert _semigroups_from_stack(
        *_validate(np.zeros((0, 2, 2), dtype=np.int64))) == []


def test_stack_reports_the_first_failing_triple_of_the_first_bad_table():
    first, second = NON_ASSOCIATIVE_3
    with pytest.raises(NonAssociative) as single:
        FiniteSemigroup(first)
    with pytest.raises(NonAssociative) as other:
        FiniteSemigroup(second)
    assert single.value.triple != other.value.triple
    with pytest.raises(NonAssociative) as info:
        _validate(order3_stack_with(NON_ASSOCIATIVE_3, 11))
    i, j, k = info.value.triple
    assert first[first[i][j]][k] != first[i][first[j][k]]
    assert info.value.triple == single.value.triple == (2, 2, 1)


@pytest.mark.parametrize("entry", [3, -1, 2**63], ids=["above", "negative",
                                                        "beyond_int64"])
def test_stack_with_an_entry_outside_the_carrier_is_rejected(entry):
    bad = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    bad[1][2] = entry
    dtype = np.uint64 if entry > 0 else np.int64
    stack = order3_stack_with([bad], 7).astype(dtype)
    with pytest.raises(IndexOutOfRange,
                       match=rf"entry {entry} at \(1, 2\) is outside \[0, 3\)"):
        _validate(stack)


# Run under `python -O`, where assert statements are stripped: a corrupted
# stack must still be rejected by the stacked validator.
CORRUPTED_STACK_SCRIPT = """
import numpy as np
from powersemi import IndexOutOfRange, NonAssociative, enumerate_semigroups
from powersemi.semigroups import _validate
if __debug__:
    raise SystemExit("expected to run under python -O")
good = [e.semigroup.rows for e in enumerate_semigroups(3)]
bad = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
try:
    _validate(np.array(good[:11] + [bad] + good[11:]))
except NonAssociative as exc:
    i, j, k = exc.triple
    if bad[bad[i][j]][k] == bad[i][bad[j][k]]:
        raise SystemExit(f"triple {exc.triple} holds in the bad table")
else:
    raise SystemExit("a non-associative table was accepted")
try:
    _validate(np.array(good[:5] + [[[0, 0, 0], [0, 0, 3],
                                     [0, 0, 0]]] + good[5:]))
except IndexOutOfRange:
    pass
else:
    raise SystemExit("an entry outside the carrier was accepted")
print("ok")
"""


def test_corrupted_stack_raises_under_optimize():
    src = str(Path(powersemi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_STACK_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def scalar_flags(rows):
    """Oracle: commutativity, the identity (or None) and the number of
    idempotents, by scanning the rows."""
    n = len(rows)
    commutative = all(rows[i][j] == rows[j][i]
                      for i in range(n) for j in range(n))
    identity = next((e for e in range(n)
                     if all(rows[e][x] == x == rows[x][e] for x in range(n))),
                    None)
    return commutative, identity, sum(rows[x][x] == x for x in range(n))


def test_flags_match_a_scalar_scan(catalog):
    # right_zero has every element as a left identity and no identity.
    carriers = [e.semigroup for entries in catalog.values() for e in entries]
    carriers += [zoo.right_zero(3), zoo.left_zero(3), zoo.cyclic_group(5)]
    for sgr in carriers + powersemi.build_power_semigroups(carriers):
        assert (sgr.commutative, sgr.identity,
                powersemi.fingerprint(sgr).idempotent_count) \
            == scalar_flags(sgr.rows)


def test_scalar_queries_match_scalar_scans(catalog):
    # Every carrier of orders 1-4 and its power table, each answered
    # twice: by the scalar queries, from profiles the loop computed, and
    # per element from the rows _profile_rows computes for all tables of
    # one order at once. fingerprints reads those rows and computes no
    # profiles.
    carriers = [e.semigroup for entries in catalog.values() for e in entries]
    powers = powersemi.build_power_semigroups(carriers)
    tables = [s.rows for s in carriers + powers]
    by_loop = [FiniteSemigroup(rows) for rows in tables]
    by_batch = [FiniteSemigroup(rows) for rows in tables]
    powersemi.fingerprints(by_batch)
    assert all(s._profiles is None for s in by_loop + by_batch)
    kernel = [None] * len(tables)
    for positions, stack in _table_stacks(by_batch, lambda n: len(tables)):
        for p, rows in zip(positions, _profile_rows(stack).tolist()):
            kernel[p] = rows
    for rows, sgr, kernel_rows in zip(tables, by_loop, kernel, strict=True):
        want = scalar_element_queries(rows)
        n = sgr.order
        got = [(sgr.is_left_cancellative(a), sgr.is_right_cancellative(a),
                a in sgr.idempotents(), sgr.index_and_period(a))
               for a in range(n)]
        assert got == want
        assert [(row[3] == n, row[4] == n, row[0] == 1, (row[1], row[2]))
                for row in kernel_rows] == want
        assert sgr.is_cancellative_semigroup() == all(
            left and right for left, right, _, _ in want)
        for query in (sgr.is_left_cancellative, sgr.is_right_cancellative,
                      sgr.is_cancellative, sgr.index_and_period):
            for outside in (-1, n):
                with pytest.raises(IndexOutOfRange):
                    query(outside)
        assert [tuple(row) for row in kernel_rows] == list(sgr._profiles)


def test_rows_are_built_on_first_use():
    sgr = FiniteSemigroup(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert sgr._rows is None
    assert sgr.rows == [[0, 1], [1, 0]] and sgr.rows is sgr.rows


def scalar_incompatible_quadruple(rows, labels):
    """Oracle: the first (x1, y1, x2, y2) with x1 ~ y1 and x2 ~ y2 but
    x1*x2 !~ y1*y2, scanning the quadruples in nested-loop order."""
    n = len(rows)
    for x1 in range(n):
        for y1 in range(n):
            if labels[x1] != labels[y1]:
                continue
            for x2 in range(n):
                for y2 in range(n):
                    if labels[x2] != labels[y2]:
                        continue
                    if labels[rows[x1][x2]] != labels[rows[y1][y2]]:
                        return (x1, y1, x2, y2)
    return None


def test_congruence_check_matches_scalar_scan_on_catalog(catalog):
    checked = rejected = 0
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            accepted = []
            for labels in _label_vectors(sgr.order):
                expected = scalar_incompatible_quadruple(sgr.rows, labels)
                checked += 1
                if expected is None:
                    assert congruence_from_partition(sgr, labels).labels \
                        == tuple(labels)
                    accepted.append(tuple(labels))
                    continue
                rejected += 1
                with pytest.raises(NotCompatible) as info:
                    congruence_from_partition(sgr, labels)
                assert info.value.quadruple == expected
            assert [c.labels for c in all_congruences(sgr)] == accepted
    assert 0 < rejected < checked


def test_all_congruences_refuses_orders_above_ten(monkeypatch):
    def no_partitions(n):
        raise AssertionError("a partition was drawn")

    monkeypatch.setattr(semigroups_module, "_label_vectors", no_partitions)
    with pytest.raises(powersemi.OrderCapExceeded):
        all_congruences(zoo.null_semigroup(11))
    monkeypatch.setattr(semigroups_module, "_label_vectors",
                        lambda n: iter(()))
    assert all_congruences(zoo.null_semigroup(10)) == []


def test_all_congruences_across_batches(monkeypatch):
    z4 = zoo.cyclic_group(4)
    whole = [c.labels for c in all_congruences(z4)]
    monkeypatch.setattr(semigroups_module, "_BATCH_FLAGS", 2 * 4 ** 4)
    assert [c.labels for c in all_congruences(z4)] == whole
