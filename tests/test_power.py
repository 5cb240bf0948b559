import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powersemi.power as power_module
import powersemi.semigroups as semigroups_module
from powersemi import (FAMILY_MAX, MAX_ORDER, POWER_CAP_MAX, AmbientMismatch,
                       CatalogEntry, FiniteSemigroup, IndexOutOfRange,
                       IsoFingerprint,
                       OrderCapExceeded, SubsetElement, SubsetFamily,
                       TheoremViolation, all_congruences, bits,
                       build_power_semigroup,
                       build_power_semigroups,
                       cancellative_elements_bruteforce, enumerate_semigroups,
                       global_iso_probe,
                       congruence_from_partition, congruence_family,
                       downward_complete_closure, downward_completeness,
                       family_products, family_report, fingerprint,
                       fingerprints, full_family, mask_of,
                       power_fingerprints,
                       setwise_product, singleton_family,
                       submasks, witness_noncancellative)
from powersemi import zoo

from oracles import (downward_completeness_bruteforce, is_cancellative_in,
                     mask_product, semigroup_state, tuple_fingerprint)


def int_set_product(rows, xs, ys):
    """Oracle: setwise product computed on plain integer sets."""
    return {rows[x][y] for x in xs for y in ys}


def as_set(subset):
    return set(subset.elements())


def test_products_match_integer_set_oracle_on_z3():
    z3 = zoo.cyclic_group(3)
    x = SubsetElement.from_elements(z3, [0, 1])
    y = SubsetElement.from_elements(z3, [0, 2])
    assert as_set(x * y) == int_set_product(z3.rows, {0, 1}, {0, 2}) == {0, 1, 2}


def test_group_subset_closed_under_full_product():
    z2 = zoo.cyclic_group(2)
    full = SubsetElement.from_elements(z2, [0, 1])
    assert as_set(full * full) == {0, 1}


def test_identity_singleton_is_neutral():
    for sgr in (zoo.cyclic_group(3), zoo.cyclic_group(4), zoo.klein_four()):
        e = SubsetElement.from_elements(sgr, [sgr.identity])
        for mask in range(1, 1 << sgr.order):
            x = SubsetElement(sgr, mask)
            assert (e * x).mask == mask
            assert (x * e).mask == mask


def test_ambient_mismatch_rejected():
    a = SubsetElement.from_elements(zoo.cyclic_group(2), [0])
    b = SubsetElement.from_elements(zoo.cyclic_group(3), [0])
    with pytest.raises(AmbientMismatch):
        setwise_product(a, b)


def test_empty_subset_rejected():
    with pytest.raises(Exception):
        SubsetElement(zoo.cyclic_group(2), 0)


Z3 = zoo.cyclic_group(3)

# Every public way a mask enters the package, over z3.
MASK_TAKERS = {
    "SubsetElement": lambda mask: SubsetElement(Z3, mask),
    "SubsetFamily": lambda mask: SubsetFamily(Z3, [mask, 2]),
    "downward_complete_closure":
        lambda mask: downward_complete_closure(Z3, [mask]),
    "witness_noncancellative":
        lambda mask: witness_noncancellative(mask, full_family(Z3)),
}

REJECTED_MASKS = {
    "float": (1.5, IndexOutOfRange),
    "float_above_a_member": (3.7, IndexOutOfRange),
    "integral_float": (3.0, IndexOutOfRange),
    "string": ("3", IndexOutOfRange),
    "none": (None, IndexOutOfRange),
    "bool": (True, IndexOutOfRange),
    "empty": (0, IndexOutOfRange),
    "negative": (-1, IndexOutOfRange),
    "beyond_carrier": (8, IndexOutOfRange),
    "foreign_ambient": (SubsetElement(zoo.cyclic_group(2), 3),
                        AmbientMismatch),
}


@pytest.mark.parametrize("take", MASK_TAKERS.values(), ids=MASK_TAKERS)
@pytest.mark.parametrize("mask,error", REJECTED_MASKS.values(),
                         ids=REJECTED_MASKS)
def test_mask_inputs_are_rejected(take, mask, error):
    with pytest.raises(error):
        take(mask)


def test_masks_accept_integers_and_subsets_over_the_same_ambient():
    fam = SubsetFamily(Z3, [np.uint64(3), SubsetElement(Z3, 5), 1])
    assert fam.masks == [1, 3, 5]
    assert SubsetElement(Z3, np.int8(6)).mask == 6
    assert witness_noncancellative(SubsetElement(Z3, 3), full_family(Z3)) \
        == witness_noncancellative(3, full_family(Z3))


def test_membership_of_masks_outside_the_family():
    fam = full_family(Z3)
    assert SubsetElement(Z3, 5) in fam
    for outside in (0, 8, 1.5, "3"):
        assert outside not in fam
    with pytest.raises(AmbientMismatch):
        SubsetElement(zoo.cyclic_group(2), 3) in fam


@pytest.mark.parametrize("x,member", [
    (0, True), (1, True), (np.int64(1), True), (2, False),
    (np.uint8(2), False), (3, False), (1 << 70, False), (-1, False),
    (-3, False), (1.5, False), (1.0, False), ("0", False), (None, False),
    (True, False)])
def test_subset_element_membership_is_false_outside_the_carrier(x, member):
    assert (x in SubsetElement(Z3, 3)) is member
    # from_elements takes the same elements: the integers in [0, 3).
    if x in SubsetElement(Z3, 7):
        assert SubsetElement.from_elements(Z3, [x]).mask == 1 << int(x)
    else:
        with pytest.raises(IndexOutOfRange):
            SubsetElement.from_elements(Z3, [x])


@pytest.mark.parametrize("walk", [bits, submasks], ids=["bits", "submasks"])
@pytest.mark.parametrize("mask", [-1, -6, -(1 << 64), np.int64(-6), 1.5, "3",
                                  True, None])
def test_bit_walks_reject_negative_masks(walk, mask):
    # Negative and non-integer masks, checked when the walk is made.
    negative = not isinstance(mask, (bool, float, str, type(None)))
    with pytest.raises(IndexOutOfRange, match="is negative" if negative
                       else "is not an integer"):
        walk(mask)


@pytest.mark.parametrize("mask", [np.uint64(5), np.int8(5)])
def test_bit_walks_read_numpy_integers_as_ints(mask):
    assert list(bits(mask)) == [0, 2]
    assert list(submasks(mask)) == [5, 4, 1]


def counting(items, drawn):
    """Yield the items, counting in drawn[0] how many were read."""
    for item in items:
        drawn[0] += 1
        yield item


def test_family_inputs_are_read_only_up_to_the_ceiling():
    # A million masks, all valid: reading them all takes seconds.
    null30 = zoo.null_semigroup(30)
    drawn = [0]
    with pytest.raises(OrderCapExceeded, match=f"ceiling {FAMILY_MAX}"):
        SubsetFamily(null30, counting(range(1, 1 << 20), drawn))
    assert drawn == [FAMILY_MAX + 1]
    # The 30 singletons come first, and the first generator is {29}.
    drawn = [0]
    with pytest.raises(OrderCapExceeded, match=f"ceiling {FAMILY_MAX}"):
        downward_complete_closure(
            null30, counting(range(1 << 29, (1 << 29) + (1 << 20)), drawn))
    assert drawn == [FAMILY_MAX + 1 - 30 + 1]


def test_empty_family_is_rejected():
    with pytest.raises(IndexOutOfRange, match="must be non-empty"):
        SubsetFamily(Z3, [])


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31)])
def test_power_semigroup_order(n, expected):
    sgr = zoo.null_semigroup(n)
    assert build_power_semigroup(sgr).order == expected


def test_power_table_of_z2_against_direct_oracle():
    z2 = zoo.cyclic_group(2)
    power = build_power_semigroup(z2)
    masks = list(range(1, 4))
    elements_of = {m: {x for x in range(2) if m >> x & 1} for m in masks}
    for a in masks:
        for b in masks:
            expected = mask_of(int_set_product(z2.rows, elements_of[a],
                                               elements_of[b]))
            assert power.rows[a - 1][b - 1] == expected - 1
    # the full subset absorbs everything
    for a in masks:
        assert power.rows[2][a - 1] == 2
        assert power.rows[a - 1][2] == 2


def test_materialization_cap():
    assert build_power_semigroup(zoo.null_semigroup(POWER_CAP_MAX)).order == 63


def test_materialization_cap_is_largest_power_table_within_max_order():
    assert (1 << POWER_CAP_MAX) - 1 <= MAX_ORDER < (1 << POWER_CAP_MAX + 1) - 1


def test_cap_above_ceiling_is_rejected():
    big = zoo.null_semigroup(POWER_CAP_MAX + 1)
    for build in (build_power_semigroup, full_family):
        with pytest.raises(OrderCapExceeded):
            build(big)


def assert_table_matches_mask_product(sgr):
    power = build_power_semigroup(sgr)
    masks = range(1, 1 << sgr.order)
    assert power.rows == [[mask_product(sgr, a, b) - 1 for b in masks]
                          for a in masks]


def test_power_table_matches_per_cell_oracle_on_catalog(catalog):
    for entries in catalog.values():
        for entry in entries:
            assert_table_matches_mask_product(entry.semigroup)


@pytest.mark.parametrize("sgr", [zoo.null_semigroup(6), zoo.cyclic_group(6)],
                         ids=["null6", "z6"])
def test_order6_power_table_matches_per_cell_oracle(sgr):
    assert_table_matches_mask_product(sgr)


@pytest.mark.parametrize("sgr", [zoo.cyclic_group(3), zoo.left_zero(3)],
                         ids=["z3", "left_zero3"])
def test_family_flags_against_direct_scan(sgr):
    masks = range(1, 1 << sgr.order)
    for choice in range(1, 1 << len(masks)):
        members = [m for k, m in enumerate(masks) if choice >> k & 1]
        fam = SubsetFamily(sgr, members)
        closed = all(mask_product(sgr, a, b) in fam
                     for a in members for b in members)
        covered = 0
        for m in members:
            covered |= m
        down = all(sub in fam for m in members
                   for sub in range(1, m + 1) if sub & m == sub)
        assert fam.is_subsemigroup == closed
        assert fam.is_downward_complete == (
            closed and covered == masks[-1] and down)


def test_singleton_embedding_preserves_products(catalog):
    for order, entries in catalog.items():
        for entry in entries:
            sgr = entry.semigroup
            for x in range(sgr.order):
                for y in range(sgr.order):
                    singleton_x = SubsetElement(sgr, 1 << x)
                    singleton_y = SubsetElement(sgr, 1 << y)
                    assert (singleton_x * singleton_y).mask == 1 << sgr.rows[x][y]


def test_power_commutative_iff_carrier_commutative(catalog):
    for entries in catalog.values():
        for entry in entries:
            power = build_power_semigroup(entry.semigroup)
            assert power.commutative == entry.semigroup.commutative


def test_singleton_family_is_minimal_downward_complete():
    z3 = zoo.cyclic_group(3)
    fam = singleton_family(z3)
    assert fam.is_downward_complete and fam.is_subsemigroup
    assert fam.masks == [1, 2, 4]
    assert downward_complete_closure(z3).masks == fam.masks


def test_full_family_is_downward_complete(catalog):
    for entries in catalog.values():
        for entry in entries:
            assert full_family(entry.semigroup).is_downward_complete


def test_parity_family_on_z4():
    z4 = zoo.cyclic_group(4)
    cong = congruence_from_partition(z4, [0, 1, 0, 1])
    fam = congruence_family(cong)
    assert len(fam) == 6
    assert set(fam.masks) == {mask_of(s) for s in
                              ({0}, {2}, {0, 2}, {1}, {3}, {1, 3})}
    # oracle: all 36 products stay inside the family
    sets = [set(SubsetElement(z4, m).elements()) for m in fam.masks]
    for xs in sets:
        for ys in sets:
            assert mask_of(int_set_product(z4.rows, xs, ys)) in fam
    assert fam.is_downward_complete


def test_congruence_family_identity_and_full():
    z3 = zoo.cyclic_group(3)
    identity = congruence_from_partition(z3, [0, 1, 2])
    assert congruence_family(identity).masks == [1, 2, 4]
    glob = congruence_from_partition(z3, [0, 0, 0])
    assert congruence_family(glob).masks == list(range(1, 8))


def test_completeness_certificate_names_the_failure():
    z4 = zoo.cyclic_group(4)
    # singletons plus {0,1}: the product {0,1}+{0,1} = {0,1,2} escapes
    leaky = SubsetFamily(z4, [1, 2, 4, 8, 0b0011])
    cert = downward_completeness(leaky)
    assert not cert and cert.failed == "closure"
    a, b, p = cert.witness
    sets = {m: {x for x in range(4) if m >> x & 1} for m in (a, b)}
    assert mask_of(int_set_product(z4.rows, sets[a], sets[b])) == p
    assert p not in leaky
    # closed but not covering the carrier
    only_zero = SubsetFamily(zoo.min_chain(2), [1])
    cert = downward_completeness(only_zero)
    assert not cert and cert.failed == "coverage" and cert.witness == (1,)
    # closed and covering but missing a subset of a member
    missing = SubsetFamily(zoo.null_semigroup(2), [1, 3])
    cert = downward_completeness(missing)
    assert not cert and cert.failed == "subsets" and cert.witness == (3, 2)
    # all three conditions hold for the full family
    assert downward_completeness(SubsetFamily(zoo.cyclic_group(2), [1, 2, 3])).ok


def assert_same_certificate(family):
    # repr also tells a numpy integer in the witness from an int.
    assert repr(downward_completeness(family)) \
        == repr(downward_completeness_bruteforce(family))


def test_downward_completeness_matches_the_full_submask_oracle(catalog):
    # Every family over every carrier of order <= 3: 127 at order 3.
    for n in (1, 2, 3):
        for entry in catalog[n]:
            for chosen in range(1, 2 ** (2 ** n - 1)):
                assert_same_certificate(SubsetFamily(entry.semigroup, [
                    m for m in range(1, 1 << n) if chosen >> (m - 1) & 1]))
    # Seeded families at orders 4 and 5: closures, closures less one
    # member, and closures plus one random mask.
    rng = random.Random(28)
    for n in (4, 5):
        failed = Counter()
        for entry in rng.sample(enumerate_semigroups(n), 40):
            sgr = entry.semigroup
            closed = downward_complete_closure(
                sgr, random_masks(rng, n, rng.randint(0, 2))).masks
            dropped = rng.choice(closed)
            for masks in (closed, [m for m in closed if m != dropped],
                          closed + random_masks(rng, n, 1)):
                family = SubsetFamily(sgr, masks)
                assert_same_certificate(family)
                failed[downward_completeness(family).failed] += 1
        assert set(failed) == {None, "closure", "coverage", "subsets"}


def test_removals_word_test_matches_a_scan_of_every_removal():
    # Every set of masks at orders 1-3, then seeded ones at orders 4-6:
    # random sets, down-sets and down-sets less one mask. The word test
    # must say what a scan of each member's one-element removals says.
    def scanned(members, n):
        return all(members >> (m ^ 1 << b) & 1
                   for m in range(1, 1 << n) if members >> m & 1
                   and m & (m - 1) for b in range(n) if m >> b & 1)

    rng = random.Random(33)
    words = {n: range(0, 1 << (1 << n), 2) for n in (1, 2, 3)}
    for n in (4, 5, 6):
        words[n] = []
        for _ in range(400):
            down = 0
            for m in random_masks(rng, n, rng.randint(1, 6)):
                down |= sum(1 << s for s in submasks(m))
            words[n] += [rng.getrandbits(1 << n) & ~1, down,
                         down & ~(1 << rng.choice(
                             [m for m in range(1, 1 << n) if down >> m & 1]))]
    outcomes = Counter()
    for n, members in ((n, w) for n in words for w in words[n]):
        expected = scanned(members, n)
        assert power_module._removals_are_members(members, n) == expected
        outcomes[expected] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_closure_of_full_mask_on_z2():
    z2 = zoo.cyclic_group(2)
    fam = downward_complete_closure(z2, [0b11])
    assert fam.masks == [1, 2, 3]


def test_closure_of_parity_generators_matches_congruence_family():
    z4 = zoo.cyclic_group(4)
    fam = downward_complete_closure(z4, [mask_of({0, 2}), mask_of({1, 3})])
    cong = congruence_from_partition(z4, [0, 1, 0, 1])
    assert fam.masks == congruence_family(cong).masks


def test_closures_always_downward_complete_and_idempotent():
    z4 = zoo.cyclic_group(4)
    for gens in ([], [0b1010], [0b1111], [0b0110, 0b1001]):
        fam = downward_complete_closure(z4, gens)
        assert fam.is_downward_complete
        again = downward_complete_closure(z4, fam.masks)
        assert again.masks == fam.masks


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=15), max_size=3),
       st.lists(st.integers(min_value=1, max_value=15), max_size=3))
def test_closure_monotone_in_generators(gens_a, gens_b):
    z4 = zoo.cyclic_group(4)
    small = downward_complete_closure(z4, gens_a)
    large = downward_complete_closure(z4, gens_a + gens_b)
    assert set(small.masks) <= set(large.masks)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=15),
       st.integers(min_value=1, max_value=15))
def test_setwise_product_commutes_over_commutative_carrier(a, b):
    z4 = zoo.cyclic_group(4)
    x, y = SubsetElement(z4, a), SubsetElement(z4, b)
    assert (x * y).mask == (y * x).mask


def test_family_report_schema():
    fam = full_family(zoo.cyclic_group(2))
    report = family_report(fam)
    assert report == {"ambient_order": 2, "members": [1, 2, 3],
                      "downward_complete": True, "subsemigroup": True}


def test_family_membership_and_indexing():
    fam = full_family(zoo.cyclic_group(3))
    assert 5 in fam and fam.index(5) == 4
    assert 8 not in fam


def test_family_index_is_each_members_position():
    fam = downward_complete_closure(zoo.cyclic_group(4), [5])
    assert [fam.index(m) for m in fam.masks] == list(range(len(fam)))
    assert fam.index(np.uint64(fam.masks[-1])) == len(fam) - 1
    for outside in sorted(set(range(1, 16)) - set(fam.masks)):
        with pytest.raises(IndexOutOfRange, match="is not a member"):
            fam.index(outside)
    with pytest.raises(IndexOutOfRange, match="not an integer"):
        fam.index(True)


INDEXED = SubsetFamily(Z3, [1, 2, 3, 4])

# What SubsetFamily.index returns or raises for each kind of input, on
# INDEXED: a position, or an error and its message. Membership is True
# for a position, raises AmbientMismatch as index does, else is False.
INDEX_INPUTS = {
    "bool": (True, IndexOutOfRange, "mask True is not an integer"),
    "float": (1.0, IndexOutOfRange, "mask 1.0 is not an integer"),
    "string": ("3", IndexOutOfRange, "mask '3' is not an integer"),
    "numpy_int64": (np.int64(3), 2, None),
    "numpy_uint8": (np.uint8(4), 3, None),
    "beyond_64_bits": (1 << 70, IndexOutOfRange,
                       f"mask {1 << 70} is not a non-empty subset of a "
                       "carrier of order 3"),
    "negative": (-1, IndexOutOfRange, "mask -1 is not a non-empty subset"),
    "empty": (0, IndexOutOfRange, "mask 0 is not a non-empty subset"),
    "non_member": (5, IndexOutOfRange, "mask 5 is not a member"),
    "foreign_ambient": (SubsetElement(zoo.cyclic_group(2), 3),
                        AmbientMismatch,
                        "subset lives over a different ambient"),
    "equal_ambient": (SubsetElement(FiniteSemigroup(Z3.rows), 3), 2, None),
}


@pytest.mark.parametrize("x,expected,message", INDEX_INPUTS.values(),
                         ids=INDEX_INPUTS)
def test_family_index_and_membership_of_each_kind_of_input(x, expected,
                                                           message):
    if not isinstance(expected, type):
        assert INDEXED.index(x) == expected and x in INDEXED
        return
    with pytest.raises(expected, match=f"^{re.escape(message)}"):
        INDEXED.index(x)
    if expected is AmbientMismatch:
        with pytest.raises(AmbientMismatch):
            x in INDEXED
    else:
        assert x not in INDEXED


def one_at_a_time_power(carrier):
    """The power semigroup built by the one-table constructor."""
    masks = np.arange(1, 1 << carrier.order, dtype=np.uint64)
    return FiniteSemigroup(family_products(carrier, masks, masks) - 1)


@pytest.mark.parametrize("cells", [None, 1000], ids=["default", "small_stacks"])
def test_batched_power_tables_equal_one_at_a_time(catalog, monkeypatch, cells):
    # Orders 1-4 shuffled together, so stacks of several orders interleave
    # in the input; with 1000 cells the order-4 tables come three at a
    # time, the last stack partial.
    if cells is not None:
        monkeypatch.setattr(power_module, "_POWER_CELLS", cells)
    carriers = [e.semigroup for entries in catalog.values() for e in entries]
    random.Random(4).shuffle(carriers)
    powers = build_power_semigroups(carriers)
    assert len(powers) == len(carriers) == 218
    for carrier, power in zip(carriers, powers):
        want = semigroup_state(one_at_a_time_power(carrier))
        assert semigroup_state(power) == want
        assert semigroup_state(build_power_semigroup(carrier)) == want


def relabeled(carrier, rng):
    """A copy of the carrier under a seeded random relabeling."""
    inverse = list(range(carrier.order))
    rng.shuffle(inverse)
    perm = [inverse.index(x) for x in range(carrier.order)]
    return FiniteSemigroup([[perm[carrier.rows[i][j]] for j in inverse]
                            for i in inverse])


def test_order_6_power_tables_fill_the_byte_masks():
    # Products of order-6 carriers reach the full mask 63, the largest a
    # uint8 kernel holds.
    rng = random.Random(6)
    carriers = [zoo.cyclic_group(6), zoo.null_semigroup(6), zoo.left_zero(6),
                zoo.min_chain(6)]
    carriers += [relabeled(carrier, rng) for carrier in carriers]
    powers = build_power_semigroups(carriers)
    for carrier, power in zip(carriers, powers):
        want = semigroup_state(one_at_a_time_power(carrier))
        assert semigroup_state(power) == want
        assert semigroup_state(build_power_semigroup(carrier)) == want
    assert max(int(p.table.max()) for p in powers) == 62


def padded_power_tables(carriers):
    """Per carrier, the proved table of _proved_power_stacks: P(S) with
    the empty set adjoined as a zero, its elements numbered by masks."""
    found = [None] * len(carriers)
    for positions, _, products in power_module._proved_power_stacks(carriers):
        for p, table in zip(positions, products.transpose(2, 0, 1)):
            found[p] = table
    return found


def test_profile_rows_of_the_padded_table_add_the_empty_sets_share():
    # Every class of orders 1-5 and the order-6 zoo tables, so padded
    # widths 2, 4, 8, 16, 32 and 64, one stack per order: _profile_rows
    # gives the empty set (1, 1, 1, 1, 1, 2**n) and every other set its
    # profile in P(S), by the scalar loop, plus (0, 0, 0, 1, 1, 1).
    carriers = [e.semigroup for n in range(1, 6)
                for e in enumerate_semigroups(n)]
    carriers += [zoo.cyclic_group(6), zoo.null_semigroup(6),
                 zoo.left_zero(6), zoo.right_zero(6), zoo.min_chain(6)]
    padded = padded_power_tables(carriers)
    powers = build_power_semigroups(carriers)
    widths = []
    for n in range(1, 7):
        at = [p for p, c in enumerate(carriers) if c.order == n]
        keys = semigroups_module._profile_rows(
            np.stack([padded[p] for p in at], axis=2))
        widths.append(keys.shape[1])
        assert not keys[:, :, 6:].any()
        assert (keys[:, 0, :6] == (1, 1, 1, 1, 1, 1 << n)).all()
        loop = np.array([FiniteSemigroup(powers[p].rows).profiles
                         for p in at])
        assert (keys[:, 1:, :6] == loop + (0, 0, 0, 1, 1, 1)).all()
    assert widths == [2, 4, 8, 16, 32, 64]


def test_power_fingerprints_of_the_order_5_catalog_are_pinned():
    # sha256 of each fingerprint's identity byte and profile bytes, in
    # catalog order; the order-6 step of CI pins the same at order 6.
    fps = power_fingerprints(e.semigroup for e in enumerate_semigroups(5))
    data = b"".join(bytes([fp.has_identity]) + fp.profiles for fp in fps)
    assert len(fps) == 1915
    assert hashlib.sha256(data).hexdigest() == \
        "82b531fb38ca0775211b29be723a0400118894e3fb41528b7d87579b8378cbaa"


ORDER_6_ZOO = [zoo.cyclic_group(6), zoo.null_semigroup(6), zoo.left_zero(6),
               zoo.right_zero(6), zoo.min_chain(6)]


@pytest.mark.parametrize("case", ["default", "small_stacks", "mixed_orders"])
def test_power_fingerprints_equal_fingerprints_of_built_tables(monkeypatch,
                                                               case):
    # Every class of orders 1-5, the order-6 zoo tables and seeded
    # relabelings of both, shuffled so that stacks of several orders
    # interleave: power_fingerprints gives each carrier the fingerprint
    # that fingerprints gives its built power table, and the scalar
    # profiles loop of the tuple oracle agrees. In the mixed case, stacks
    # of 1000 cells come in the order 15 and 9 order-3 tables (8-bit
    # sets), 3 order-4 ones (16-bit sets in fewer cells), 5 order-2 ones
    # (k grows, the word narrows), then single order-5 and order-6 ones:
    # the one word buffer must fit each stack's shape and word.
    rng = random.Random(27)
    carriers = [e.semigroup for n in range(1, 6)
                for e in enumerate_semigroups(n)]
    carriers += ORDER_6_ZOO
    carriers += [relabeled(c, rng) for c in rng.sample(carriers, 40)
                 + carriers[-5:]]
    rng.shuffle(carriers)
    if case == "small_stacks":
        carriers = carriers[::10]
    if case == "mixed_orders":
        carriers = [e.semigroup for n in (3, 4, 2, 5)
                    for e in enumerate_semigroups(n)[:24]] + ORDER_6_ZOO
    if case != "default":
        monkeypatch.setattr(power_module, "_POWER_CELLS", 1000)
    found = power_fingerprints(carriers)
    powers = build_power_semigroups(carriers)
    assert found == fingerprints(powers)
    for fp, power in zip(found, powers, strict=True):
        oracle = tuple_fingerprint(power)
        assert fp.has_identity == oracle.has_identity
        assert fp.profiles == bytes(chain.from_iterable(oracle.profiles))
    assert power_fingerprints([]) == []


def test_power_stacks_split_anywhere_give_one_at_a_time_results(monkeypatch):
    # 300 order-5 classes make three stacks of at most 128 (128, 128, 44)
    # and 40 order-6 tables, the zoo and seven relabelings of each, two
    # of at most 32 (32, 8), shuffled with every class of orders 1-4:
    # each carrier's power fingerprint and power table must not depend
    # on which stack it shares, or where in it it sits.
    rng = random.Random(35)
    carriers = [e.semigroup for n in range(1, 5)
                for e in enumerate_semigroups(n)]
    carriers += [e.semigroup for e in enumerate_semigroups(5)[:300]]
    carriers += ORDER_6_ZOO + [relabeled(c, rng) for c in ORDER_6_ZOO * 7]
    rng.shuffle(carriers)
    stacks = []

    def recording(images):
        stacks.append(images.shape)
        return KERNEL(images)

    monkeypatch.setattr(power_module, "_power_products", recording)
    found = power_fingerprints(carriers)
    assert sorted(k for n, _, k in stacks if n == 5) == [44, 128, 128]
    assert sorted(k for n, _, k in stacks if n == 6) == [8, 32]
    powers = build_power_semigroups(carriers)
    monkeypatch.undo()
    for carrier, fp, power in zip(carriers, found, powers, strict=True):
        assert power_fingerprints([carrier]) == [fp]
        (single,) = build_power_semigroups([carrier])
        assert semigroup_state(power) == semigroup_state(single)


def test_batched_fingerprints_are_the_named_tuples_fingerprint_gives():
    # fingerprints and power_fingerprints build their IsoFingerprint
    # tuples without the NamedTuple's __new__; each must still be the
    # NamedTuple that fingerprint builds on a fresh copy, in type,
    # fields, equality, hash and repr.
    carriers = [e.semigroup for n in (2, 3) for e in enumerate_semigroups(n)]
    carriers += [zoo.cyclic_group(4), zoo.min_chain(4)]
    powers = build_power_semigroups(carriers)
    batch = fingerprints([FiniteSemigroup(p.table) for p in powers])
    for got_batch, got_power, power in zip(
            batch, power_fingerprints(carriers), powers, strict=True):
        want = fingerprint(FiniteSemigroup(power.table))
        for got in (got_batch, got_power):
            assert type(got) is IsoFingerprint
            assert got == want and hash(got) == hash(want)
            assert got._asdict() == want._asdict()
            assert type(got.has_identity) is bool
            assert type(got.profiles) is bytes
            assert (got.order, got.commutative, got.idempotent_count) == (
                want.order, want.commutative, want.idempotent_count)
            assert repr(got) == repr(want)


def build_classify_families(seed, closures=3):
    """Build the families of the benchmark workload classify-order5 at a
    seed: per commutative order-5 class, in a seeded shuffle of catalog
    order, the full family, one family per congruence and the closures
    of `closures` seeded lists of zero to two generators."""
    rng = random.Random(seed)
    chosen = [e.semigroup for e in enumerate_semigroups(5)
              if e.semigroup.commutative]
    rng.shuffle(chosen)
    for carrier in chosen:
        gens = [[rng.randrange(1, 1 << carrier.order)
                 for _ in range(rng.randint(0, 2))]
                for _ in range(closures)]
        full_family(carrier)
        for congruence in all_congruences(carrier):
            congruence_family(congruence)
        for g in gens:
            downward_complete_closure(carrier, g)


def test_word_test_flags_match_certificates_on_classify_inputs(monkeypatch):
    # Over carriers of order at most POWER_CAP_MAX the constructor sets
    # both flags by the word tests alone. On every family that the
    # workload's inputs at seed 3 construct, the rounds of each closure
    # included, the flags must be those of downward_completeness, and its
    # certificate the full scan's.
    built = []
    init = SubsetFamily.__init__

    def recording(self, semigroup, masks):
        init(self, semigroup, masks)
        built.append(self)

    monkeypatch.setattr(SubsetFamily, "__init__", recording)
    build_classify_families(3)
    monkeypatch.undo()
    failed = Counter()
    for family in built:
        cert = downward_completeness(family)
        failed[cert.failed] += 1
        assert family.is_subsemigroup == (cert.failed != "closure")
        assert family.is_downward_complete == cert.ok
        assert cert == downward_completeness_bruteforce(family)
    # 5,406 families checked, and 412 closure rounds that fail closure.
    assert failed == {None: 5406, "closure": 412}


@pytest.mark.parametrize("order", [5, 6])
def test_power_stacks_keep_scratch_within_a_multiple_of_batch_cells(order):
    # The order-5 catalog, 15 stacks, and the order-6 zoo tables, one:
    # beyond what the call returns, power_fingerprints peaks at 9.7 and
    # 2.2 times _POWER_CELLS bytes under tracemalloc, and
    # build_power_semigroups at 4.5 and 0.5, however many carriers come.
    # Scratch that grew with the input, such as a word buffer sized for
    # every stack at once, would exceed these bounds at order 5.
    carriers = ([e.semigroup for e in enumerate_semigroups(5)]
                if order == 5 else ORDER_6_ZOO)
    cells = power_module._POWER_CELLS
    for build, bound in ((power_fingerprints, 16), (build_power_semigroups, 8)):
        tracemalloc.start()
        try:
            found = build(carriers)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == len(carriers)
        assert peak - kept <= bound * cells
        del found


def test_small_batch_cells_build_one_table_per_stack(monkeypatch):
    # 1000 cells hold less than one order-5 table (1,024 cells with the
    # empty set's padding), so every stack still holds one table.
    stacks = []

    def recording(images):
        stacks.append(images.shape)
        return KERNEL(images)

    carriers = [e.semigroup
                for e in enumerate_semigroups(5)[:6]]
    carriers += [zoo.cyclic_group(6), zoo.min_chain(6)]
    want = [semigroup_state(p) for p in build_power_semigroups(carriers)]
    monkeypatch.setattr(power_module, "_POWER_CELLS", 1000)
    monkeypatch.setattr(power_module, "_power_products", recording)
    assert [semigroup_state(p)
            for p in build_power_semigroups(carriers)] == want
    assert stacks == [(5, 5, 1)] * 6 + [(6, 6, 1)] * 2


def test_batched_power_build_checks_the_cap_of_every_carrier(monkeypatch):
    # Order 7 is rejected before any product is computed.
    def refuse(images):
        raise RuntimeError("no product above the cap")

    monkeypatch.setattr(power_module, "_power_products", refuse)
    for carrier in (zoo.cyclic_group(7), zoo.null_semigroup(7)):
        with pytest.raises(OrderCapExceeded):
            build_power_semigroup(carrier)
        with pytest.raises(OrderCapExceeded):
            build_power_semigroups([zoo.cyclic_group(2), carrier])
        with pytest.raises(OrderCapExceeded):
            power_fingerprints([zoo.cyclic_group(2), carrier])
    assert POWER_CAP_MAX + 1 == 7
    assert build_power_semigroups([]) == []


def test_power_builds_with_a_function_in_place_of_the_class(monkeypatch):
    # A traced benchmark run replaces the FiniteSemigroup binding of the
    # power module with a plain wrapper function: every build must still
    # work, singly, in batch and inside the probe.
    wrapped = []

    def wrapper(table):
        wrapped.append(1)
        return FiniteSemigroup(table)

    carriers = [zoo.cyclic_group(3), zoo.min_chain(4), zoo.left_zero(2)]
    want = [semigroup_state(one_at_a_time_power(c)) for c in carriers]
    entries = enumerate_semigroups(3)
    report = global_iso_probe(3, entries=[
        CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
        for e in entries])
    monkeypatch.setattr(power_module, "FiniteSemigroup", wrapper)
    assert [semigroup_state(build_power_semigroup(c))
            for c in carriers] == want
    assert [semigroup_state(p)
            for p in build_power_semigroups(carriers)] == want
    assert full_family(carriers[0]).as_semigroup().order == 7
    assert wrapped == [1]
    traced = global_iso_probe(3, entries=[
        CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
        for e in entries])
    assert {**traced, "elapsed_ms": 0} == {**report, "elapsed_ms": 0}


@pytest.mark.parametrize("n,digest,commutative,identities", [
    (4, "c5ee9d521eef6ecfe2860e950fa395d0d4941019b88667a0c6a680bc18fa3621",
     58, 35),
    (5, "2048b638399944e99922214e5f03f93733daa14c9f02af15d805e079eecd076f",
     325, 228)])
def test_power_tables_of_the_catalog_are_pinned(n, digest, commutative,
                                                identities):
    # sha256 of the uint8 power tables stacked in catalog order.
    powers = build_power_semigroups(
        e.semigroup for e in enumerate_semigroups(n))
    stack = np.stack([p.table for p in powers])
    assert stack.dtype == np.uint8
    assert hashlib.sha256(stack.tobytes()).hexdigest() == digest
    assert sum(p.commutative for p in powers) == commutative
    assert sum(p.identity is not None for p in powers) == identities


KERNEL = power_module._power_products


def left_zero_in_place_of_null(images):
    # P(left_zero(3)) is associative, so an associativity check passes
    # it, but it is not P(null(3)).
    return KERNEL(np.broadcast_to((1 << zoo.left_zero(3).table)[:, :, None],
                                  images.shape))


def one_flipped_bit(images):
    products = KERNEL(images)
    products[5, 6, 0] ^= 2
    return products


def two_swapped_entries(images):
    products = KERNEL(images)
    products[[3, 5], [5, 3], 0] = products[[5, 3], [3, 5], 0]
    return products


def empty_set_absorbed(images):
    # On null(3), P[{}, Y] = P[X, {}] = {0} for non-empty X and Y keeps
    # every recurrence of the proof, but {} is no longer a zero, and the
    # power fingerprint changes.
    products = KERNEL(images)
    products[0, 1:] = products[1:, 0] = 1
    return products


WRONG_KERNELS = {
    "left_zero_in_place_of_null": (left_zero_in_place_of_null,
                                   zoo.null_semigroup(3)),
    "empty_set_absorbed": (empty_set_absorbed, zoo.null_semigroup(3)),
    "one_flipped_bit": (one_flipped_bit, zoo.left_zero(3)),
    "two_swapped_entries": (two_swapped_entries, zoo.left_zero(3)),
}


@pytest.mark.parametrize("kernel,carrier", WRONG_KERNELS.values(),
                         ids=WRONG_KERNELS)
def test_power_table_that_is_not_the_setwise_product_is_rejected(
        monkeypatch, kernel, carrier):
    images = 1 << carrier.table[:, :, None]
    assert not np.array_equal(kernel(images), KERNEL(images))
    monkeypatch.setattr(power_module, "_power_products", kernel)
    with pytest.raises(TheoremViolation, match="not the setwise product"):
        build_power_semigroup(carrier)
    with pytest.raises(TheoremViolation, match="not the setwise product"):
        power_fingerprints([carrier])


def test_every_single_bit_flip_of_a_power_table_is_rejected(monkeypatch):
    # Every bit of every cell X * Y of P(Z3), X and Y non-empty.
    for x, y, bit in product(range(1, 8), range(1, 8), range(3)):
        def flipped(images):
            products = KERNEL(images)
            products[x, y, 0] ^= 1 << bit
            return products
        monkeypatch.setattr(power_module, "_power_products", flipped)
        with pytest.raises(TheoremViolation):
            build_power_semigroup(Z3)


# Run under `python -O`, where assert statements are stripped: each wrong
# kernel result must still be rejected.
WRONG_KERNEL_SCRIPT = """
from powersemi import TheoremViolation, build_power_semigroup, power
from test_power import WRONG_KERNELS
if __debug__:
    raise SystemExit("expected to run under python -O")
for name, (kernel, carrier) in WRONG_KERNELS.items():
    power._power_products = kernel
    try:
        build_power_semigroup(carrier)
    except TheoremViolation:
        continue
    raise SystemExit(f"{name}: a wrong power table was accepted")
print("ok")
"""


def test_wrong_power_tables_raise_under_optimize():
    paths = [str(Path(power_module.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, paths + [env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_KERNEL_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_power_build_does_not_call_the_table_validator(catalog, monkeypatch):
    carriers = [e.semigroup for entries in catalog.values() for e in entries]
    want = [semigroup_state(p) for p in build_power_semigroups(carriers)]

    def refuse(stack):
        raise RuntimeError("power tables are proved, not re-validated")

    monkeypatch.setattr(semigroups_module, "_validate", refuse)
    assert [semigroup_state(p)
            for p in build_power_semigroups(carriers)] == want


def test_as_semigroup_matches_build_power_semigroup(catalog):
    carriers = [zoo.cyclic_group(3), zoo.null_semigroup(6), zoo.cyclic_group(6)]
    carriers += [entry.semigroup for entries in catalog.values()
                 for entry in entries]
    for sgr in carriers:
        assert full_family(sgr).as_semigroup() == build_power_semigroup(sgr)


def random_masks(rng, order, count):
    return [rng.randrange(1, 1 << order) for _ in range(count)]


def assert_products_match_mask_product(sgr, xs, ys):
    products = family_products(sgr, xs, ys)
    assert products.dtype == "uint64"
    assert products.shape == (len(xs), len(ys))
    assert products.tolist() == [[mask_product(sgr, a, b) for b in ys]
                                 for a in xs]


def test_family_products_match_mask_product_on_catalog(catalog):
    rng = random.Random(11)
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            xs = random_masks(rng, sgr.order, rng.randint(1, 9))
            ys = random_masks(rng, sgr.order, rng.randint(1, 9))
            assert_products_match_mask_product(sgr, xs, ys)
            assert_products_match_mask_product(sgr, xs, xs)


@pytest.mark.parametrize("sgr", [zoo.null_semigroup(64), zoo.left_zero(64)],
                         ids=["null64", "left_zero64"])
def test_family_products_use_bit_63(sgr):
    rng = random.Random(5)
    top = 1 << 63
    xs = [top, top | 1, (1 << 64) - 1] + random_masks(rng, 64, 5)
    ys = [1, top, top | 6] + random_masks(rng, 64, 4)
    assert_products_match_mask_product(sgr, xs, ys)


def test_family_products_keep_scratch_within_one_mib():
    # The full family of an order-11 carrier at the ceiling: an
    # (n, kx, ky) temporary would be 11 times the result's 33.5 MB.
    sgr = zoo.cyclic_group(11)
    masks = list(range(1, FAMILY_MAX + 1))
    for ys in (masks, list(masks)):
        tracemalloc.start()
        try:
            products = family_products(sgr, masks, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert products.shape == (FAMILY_MAX, FAMILY_MAX)
        assert peak < products.nbytes + (1 << 20)
        assert products[3, 5] == mask_product(sgr, 4, 6)
        del products


def scalar_closure_witness(family):
    """Oracle: the first non-member product in row-major member order."""
    for a in family.masks:
        for b in family.masks:
            p = mask_product(family.semigroup, a, b)
            if p not in family:
                return a, b, p
    return None


def test_closure_witness_matches_row_major_scan(catalog):
    rng = random.Random(3)
    for order in (1, 2, 3):
        for entry in catalog[order]:
            sgr = entry.semigroup
            for _ in range(10):
                fam = SubsetFamily(sgr, random_masks(rng, order,
                                                     rng.randint(1, 6)))
                assert fam._closure_witness() == scalar_closure_witness(fam)
    for sgr in (zoo.null_semigroup(64), zoo.left_zero(64)):
        fam = SubsetFamily(sgr, [1 << 62, 1 << 63, 3 << 62])
        assert fam._closure_witness() == scalar_closure_witness(fam)


NOT_AN_INTEGER = [1.5, "3", True, None, np.float64(2.0)]


@pytest.mark.parametrize("sgr", [zoo.cyclic_group(3), zoo.cyclic_group(9)],
                         ids=["order3", "order9"])
def test_family_products_reject_what_is_not_a_mask(sgr):
    # Either side, and the same list on both: a mask dropped to its low
    # bits, read as int() reads it, or wrapped as a negative index would
    # all give a product of some other subset.
    n = sgr.order
    cases = [(x, f"mask {x!r} is not an integer") for x in NOT_AN_INTEGER]
    cases += [(x, f"mask {x} is not a non-empty subset of a carrier of "
                  f"order {n}") for x in (0, -1, 1 << n, 9 << n, (1 << n) | 1)]
    for bad, message in cases:
        for xs, ys in (([bad], [1]), ([1, 2], [2, bad]), ([bad, 3],) * 2):
            with pytest.raises(IndexOutOfRange, match=f"^{re.escape(message)}$"):
                family_products(sgr, xs, ys)
    assert family_products(sgr, [1], [2]).tolist() == [[2]]


def test_family_construction_does_not_check_its_masks_again(monkeypatch):
    def refuse(semigroup, x):
        raise RuntimeError("plain int masks are proved by _distinct_masks")

    monkeypatch.setattr(power_module, "_as_mask", refuse)
    for sgr in (zoo.cyclic_group(5), zoo.cyclic_group(7)):
        assert len(SubsetFamily(sgr, [1, 2, 3, 1])) == 3
        full = range(1, 1 << sgr.order)
        assert len(SubsetFamily(sgr, full)) == len(full)


ORACLE_CARRIERS = {
    5: None,
    6: ORDER_6_ZOO,
    7: [zoo.cyclic_group(7), zoo.null_semigroup(7), zoo.left_zero(7),
        zoo.min_chain(7)],
    9: [zoo.cyclic_group(9), zoo.null_semigroup(9), zoo.right_zero(9),
        zoo.min_chain(9)],
}


@pytest.mark.parametrize("order", ORACLE_CARRIERS)
def test_family_products_closure_and_bruteforce_match_oracles(order):
    # Orders 5 and 6 read the carrier's power table, word-test closure
    # and count distinct products by popcount; orders 7 and 9 take the
    # bit-DP, the row-major scan and the sorts. Each carrier gets seeded
    # families that are mostly not closed, and closed ones to classify.
    rng = random.Random(order)
    carriers = ORACLE_CARRIERS[order] or rng.sample(
        [e.semigroup for e in enumerate_semigroups(5)], 8)
    assert (order <= POWER_CAP_MAX) == (order < 7)
    for sgr in carriers:
        families = [SubsetFamily(sgr, random_masks(rng, order,
                                                   rng.randint(1, 12)))
                    for _ in range(6)]
        families.append(singleton_family(sgr))
        if order <= POWER_CAP_MAX or not sgr.table.any():
            families.append(downward_complete_closure(
                sgr, random_masks(rng, order, 1)))
        if order <= POWER_CAP_MAX:
            families.append(full_family(sgr))
        closed = 0
        for fam in families:
            xs = random_masks(rng, order, rng.randint(1, 5))
            assert_products_match_mask_product(sgr, xs, fam.masks)
            assert fam.products.tolist() == [
                [mask_product(sgr, a, b) for b in fam.masks]
                for a in fam.masks]
            assert fam._closure_witness() == scalar_closure_witness(fam)
            assert downward_completeness(fam) == \
                downward_completeness_bruteforce(fam)
            if fam.is_subsemigroup:
                closed += 1
                assert {m.mask for m in cancellative_elements_bruteforce(
                    fam)} == {m for m in fam.masks
                              if is_cancellative_in(m, fam)}
        assert closed >= 1


def test_families_read_one_cached_power_table_per_carrier():
    carrier = FiniteSemigroup(zoo.cyclic_group(5).table)
    assert carrier._power_table is None
    fam = full_family(carrier)
    table = carrier._power_table
    (_, _, padded), = power_module._proved_power_stacks([carrier])
    assert table.dtype == np.uint8 and table.shape == (32, 32)
    assert not table.flags.writeable
    assert np.array_equal(table, padded[:, :, 0])
    downward_complete_closure(carrier, [0b101])
    singleton_family(carrier)
    setwise_product(SubsetElement(carrier, 3), SubsetElement(carrier, 6))
    assert carrier._power_table is table
    assert fam.products.tolist() == table[1:, 1:].tolist()


def test_power_builds_and_the_probe_leave_the_power_table_unset():
    entries = [CatalogEntry(FiniteSemigroup(e.semigroup.table),
                            e.canonical_id, e.fingerprint)
               for e in enumerate_semigroups(3)]
    carriers = [e.semigroup for e in entries]
    power_fingerprints(carriers)
    build_power_semigroups(carriers)
    build_power_semigroup(carriers[0])
    global_iso_probe(3, entries=entries)
    assert all(c._power_table is None for c in carriers)


def test_carriers_above_the_cap_get_no_power_table():
    for sgr in (zoo.cyclic_group(7), zoo.min_chain(9)):
        full = (1 << sgr.order) - 1
        downward_complete_closure(sgr, [0b11])
        SubsetFamily(sgr, [1, full])
        family_products(sgr, [full], [3])
        setwise_product(SubsetElement(sgr, full), SubsetElement(sgr, 3))
        assert sgr._power_table is None


def closed_families(sgr):
    families = [full_family(sgr), singleton_family(sgr)]
    families += [congruence_family(c) for c in all_congruences(sgr)]
    families += [downward_complete_closure(sgr, [m])
                 for m in range(1, 1 << sgr.order, 3)]
    return families


def test_as_semigroup_matches_per_cell_index_table(catalog):
    for order in (1, 2, 3):
        for entry in catalog[order]:
            for fam in closed_families(entry.semigroup):
                table = [[fam.index(mask_product(fam.semigroup, a, b))
                          for b in fam.masks] for a in fam.masks]
                assert fam.as_semigroup().rows == table


def scalar_closure(sgr, generators):
    """Oracle: close under non-empty subsets and products, pair by pair,
    until nothing changes."""
    members = {1 << x for x in range(sgr.order)} | set(generators)
    changed = True
    while changed:
        changed = False
        for m in list(members):
            for sub in submasks(m):
                if sub not in members:
                    members.add(sub)
                    changed = True
        snapshot = list(members)
        for a in snapshot:
            for b in snapshot:
                p = mask_product(sgr, a, b)
                if p not in members:
                    members.add(p)
                    changed = True
    return sorted(members)


def test_closure_matches_scalar_fixpoint(catalog):
    rng = random.Random(8)
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            gens = random_masks(rng, sgr.order, rng.randint(0, 2))
            assert downward_complete_closure(sgr, gens).masks == \
                scalar_closure(sgr, gens)


def test_closure_multiplies_each_member_list_once(monkeypatch):
    # Each round is one SubsetFamily; the closed round is the result and
    # is not rebuilt.
    sizes = []
    products = power_module._family_products

    def counted(semigroup, xs, ys):
        sizes.append(len(xs))
        return products(semigroup, xs, ys)

    monkeypatch.setattr(power_module, "_family_products", counted)
    fam = downward_complete_closure(zoo.cyclic_group(4), [0b11])
    assert sizes == [5, 10, 15]
    assert len(fam) == 15 and fam.is_downward_complete


def test_closure_of_full_mask_on_null9():
    fam = downward_complete_closure(zoo.null_semigroup(9), [(1 << 9) - 1])
    assert fam.masks == list(range(1, 1 << 9))
    assert fam.is_downward_complete


def test_family_ceiling_is_checked_before_any_product():
    full = (1 << 64) - 1
    with pytest.raises(OrderCapExceeded):
        SubsetFamily(zoo.null_semigroup(12), range(1, FAMILY_MAX + 2))
    with pytest.raises(OrderCapExceeded):
        downward_complete_closure(zoo.null_semigroup(12), [(1 << 12) - 1])
    with pytest.raises(OrderCapExceeded):
        downward_complete_closure(zoo.null_semigroup(64), [full])
    one_class = congruence_from_partition(zoo.null_semigroup(12), [0] * 12)
    with pytest.raises(OrderCapExceeded):
        congruence_family(one_class)
