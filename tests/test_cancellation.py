import dataclasses
import hashlib
import json

import pytest

import powersemi.cancellation as cancellation_module
import powersemi.catalog as catalog_module
from powersemi import (CASE1, CASE2, AmbientMismatch, CancellationWitness,
                       FiniteSemigroup, IndexOutOfRange, PreconditionViolated,
                       SubsetElement, SubsetFamily, TheoremViolation,
                       all_congruences, build_power_semigroup,
                       cancellative_elements_bruteforce,
                       congruence_family, congruence_from_partition,
                       downward_complete_closure, downward_completeness,
                       enumerate_semigroups, full_family, mask_of,
                       singleton_cancellative_elements,
                       singleton_characterization_check, singleton_family,
                       verify_witness, witness_noncancellative)
from powersemi import zoo

from oracles import (find_witness_bruteforce, is_cancellative_in,
                     mask_product, pair_scan_witness)
from test_power import ORDER_6_ZOO


def masks_of(members):
    return {m.mask for m in members}


def test_bruteforce_on_power_of_z2():
    fam = full_family(zoo.cyclic_group(2))
    assert masks_of(cancellative_elements_bruteforce(fam)) == {1, 2}


def test_bruteforce_on_singletons_of_z3():
    fam = singleton_family(zoo.cyclic_group(3))
    assert masks_of(cancellative_elements_bruteforce(fam)) == {1, 2, 4}


def test_bruteforce_on_power_of_null_semigroup_is_empty():
    fam = full_family(zoo.null_semigroup(2))
    assert cancellative_elements_bruteforce(fam) == set()


def test_singleton_rule_on_power_of_z3():
    fam = full_family(zoo.cyclic_group(3))
    assert masks_of(singleton_cancellative_elements(fam)) == {1, 2, 4}


def test_singleton_rule_on_meet_semilattice():
    # in min(x, y) on {0, 1} only the top element 1 is cancellative
    fam = full_family(zoo.min_chain(2))
    assert masks_of(singleton_cancellative_elements(fam)) == {2}
    assert masks_of(cancellative_elements_bruteforce(fam)) == {2}


def test_singleton_rule_rejects_noncommutative_carrier():
    fam = full_family(zoo.left_zero(2))
    with pytest.raises(PreconditionViolated, match="NotCommutative"):
        singleton_cancellative_elements(fam)


def test_singleton_rule_rejects_incomplete_family():
    z3 = zoo.cyclic_group(3)
    not_complete = SubsetFamily(z3, [7])  # closed, covering, not subset-closed
    assert not_complete.is_subsemigroup
    with pytest.raises(PreconditionViolated, match="NotDownwardComplete"):
        singleton_cancellative_elements(not_complete)


def test_case1_witness_on_meet_semilattice():
    carrier = zoo.min_chain(2)
    fam = full_family(carrier)
    witness = witness_noncancellative(mask_of({0, 1}), fam)
    assert witness.case_tag == CASE1
    assert witness.multiplier.mask == 0b11
    assert witness.lhs.mask == 0b11
    assert witness.rhs.mask == 0b10
    # oracle: both products are {0, 1}
    assert mask_product(carrier, 0b11, 0b11) == 0b11
    assert mask_product(carrier, 0b11, 0b10) == 0b11


def test_case2_witness_on_z3():
    z3 = zoo.cyclic_group(3)
    witness = witness_noncancellative(mask_of({0, 1}), full_family(z3))
    assert witness.case_tag == CASE2
    assert set(witness.lhs.elements()) == {0, 1, 2}
    assert set(witness.rhs.elements()) == {0, 2}
    sums = {(x + y) % 3 for x in (0, 1) for y in (0, 1, 2)}
    trimmed = {(x + y) % 3 for x in (0, 1) for y in (0, 2)}
    assert sums == trimmed == {0, 1, 2}


def test_case2_witness_on_z2():
    z2 = zoo.cyclic_group(2)
    witness = witness_noncancellative(mask_of({0, 1}), full_family(z2))
    assert witness.case_tag == CASE2
    assert set(witness.lhs.elements()) == {0, 1}
    assert set(witness.rhs.elements()) == {0}


def test_witness_preconditions():
    z3 = zoo.cyclic_group(3)
    fam = full_family(z3)
    with pytest.raises(PreconditionViolated):
        witness_noncancellative(0b001, fam)  # singleton
    with pytest.raises(PreconditionViolated):
        witness_noncancellative(0b011, full_family(zoo.left_zero(2)))
    parity = congruence_family(
        congruence_from_partition(zoo.cyclic_group(4), [0, 1, 0, 1]))
    with pytest.raises(PreconditionViolated):
        witness_noncancellative(mask_of({0, 1}), parity)  # not a member


def test_witnesses_sound_on_all_nonsingleton_subsets(catalog):
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            if not sgr.commutative:
                continue
            fam = full_family(sgr)
            for mask in fam.masks:
                if mask.bit_count() < 2:
                    continue
                witness = witness_noncancellative(mask, fam)
                assert verify_witness(witness, fam)
                assert witness.lhs.mask in fam and witness.rhs.mask in fam
                # an independent scan must also find some collision
                brute = find_witness_bruteforce(mask, fam)
                assert brute is not None and verify_witness(brute, fam)


def witness_of(semigroup, multiplier, lhs, rhs):
    return CancellationWitness(*(SubsetElement(semigroup, m)
                                 for m in (multiplier, lhs, rhs)), CASE1)


Z3 = zoo.cyclic_group(3)
# {0, 1, 2} absorbs every subset of z3, so it maps {0} and {1} to itself.
ABSORBED = witness_of(Z3, 0b111, 0b001, 0b010)


def test_verify_witness_accepts_a_collision_in_the_full_family():
    assert verify_witness(ABSORBED, full_family(Z3))


@pytest.mark.parametrize("witness,family", [
    (witness_of(Z3, 0b111, 0b001, 0b001), full_family(Z3)),
    (ABSORBED, SubsetFamily(Z3, [0b001, 0b111])),
    (ABSORBED, singleton_family(Z3)),
    (witness_of(Z3, 0b001, 0b001, 0b010), full_family(Z3)),
], ids=["equal_sides", "side_not_a_member", "multiplier_not_a_member",
        "left_products_differ"])
def test_verify_witness_rejects(witness, family):
    assert verify_witness(witness, family) is False


def test_verify_witness_rejects_a_witness_over_another_ambient():
    z2 = zoo.cyclic_group(2)
    with pytest.raises(AmbientMismatch):
        verify_witness(witness_of(z2, 0b11, 0b01, 0b10), full_family(Z3))


def test_witness_is_deterministic():
    fam = full_family(zoo.cyclic_group(4))
    first = witness_noncancellative(0b1011, fam)
    second = witness_noncancellative(0b1011, fam)
    assert first == second


def test_witness_that_fails_verify_witness_is_a_theorem_violation(
        monkeypatch):
    monkeypatch.setattr(cancellation_module, "verify_witness",
                        lambda witness, family: False)
    with pytest.raises(TheoremViolation, match="fails verify_witness"):
        witness_noncancellative(0b011, full_family(Z3))


def test_family_that_is_not_closed_has_no_cancellatives_to_classify():
    # {0, 1} * {0, 1} = {0, 1, 2} is not a member.
    family = SubsetFamily(Z3, [0b011])
    assert not family.is_subsemigroup
    with pytest.raises(PreconditionViolated, match="not closed"):
        cancellative_elements_bruteforce(family)
    with pytest.raises(PreconditionViolated, match="not closed"):
        family.as_semigroup()


def test_bruteforce_agrees_with_rule_over_small_catalog(catalog):
    for order in (1, 2, 3):
        for entry in catalog[order]:
            sgr = entry.semigroup
            if not sgr.commutative:
                continue
            families = [full_family(sgr), singleton_family(sgr)]
            families += [congruence_family(c) for c in all_congruences(sgr)]
            for fam in families:
                assert (masks_of(cancellative_elements_bruteforce(fam))
                        == masks_of(singleton_cancellative_elements(fam)))


def test_find_witness_bruteforce_none_for_cancellative_member():
    fam = full_family(zoo.cyclic_group(3))
    assert find_witness_bruteforce(0b001, fam) is None


def test_witness_report_wire_format():
    witness = witness_noncancellative(0b011, full_family(zoo.cyclic_group(3)))
    assert witness.report() == {"case": "Case2", "multiplier": 3,
                                "lhs": 7, "rhs": 5}


def test_singleton_observation_family_not_subset_closed():
    # A subsemigroup containing all singletons but not subset-closed: the
    # singleton rule refuses it, brute force still classifies it.
    z3 = zoo.cyclic_group(3)
    fam = SubsetFamily(z3, [1, 2, 4, 7])
    assert fam.is_subsemigroup and not fam.is_downward_complete
    assert masks_of(cancellative_elements_bruteforce(fam)) == {1, 2, 4}
    with pytest.raises(PreconditionViolated):
        singleton_cancellative_elements(fam)


def test_bruteforce_matches_per_member_check_on_prop1_families(monkeypatch):
    checked = []

    def compare(family):
        found = cancellative_elements_bruteforce(family)
        assert masks_of(found) == {m for m in family.masks
                                   if is_cancellative_in(m, family)}
        checked.append(family)
        return found

    monkeypatch.setattr(catalog_module, "cancellative_elements_bruteforce",
                        compare)
    report = singleton_characterization_check(4)
    assert report["violations"] == []
    assert len(checked) == report["families_checked"] == 739


def test_bruteforce_matches_per_member_check_on_noncommutative_families():
    for sgr in (zoo.left_zero(3), zoo.right_zero(3), zoo.null_semigroup(3)):
        for fam in (full_family(sgr), singleton_family(sgr)):
            assert masks_of(cancellative_elements_bruteforce(fam)) == \
                {m for m in fam.masks if is_cancellative_in(m, fam)}


# sha256 of the JSON list of witness reports below, as computed before
# witnesses were built from proved masks.
PROP1_WITNESS_DIGEST = \
    "37e62bc53dd98c3d10e0b7003029ffd9f279a2e450103725d622247f85707b24"


def test_witness_reports_on_the_order_4_prop1_families_are_pinned(
        monkeypatch):
    # Every family that prop1-check --order 4 --seed 0 classifies, in
    # order, and the witness of each non-singleton member of the
    # downward-complete ones.
    families = []
    rule = catalog_module.singleton_cancellative_elements

    def recording(family):
        families.append(family)
        return rule(family)

    monkeypatch.setattr(catalog_module, "singleton_cancellative_elements",
                        recording)
    report = singleton_characterization_check(4, seed=0)
    reports = [witness_noncancellative(m, family).report()
               for family in families if family.is_downward_complete
               for m in family.masks if m.bit_count() >= 2]
    assert report["families_checked"] == len(families) == 739
    assert len(reports) == 2573
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() \
        == PROP1_WITNESS_DIGEST


# Computed before family products were read from the carrier's power
# table, over the bit-DP products and the sorted-line classifier.
PROP1_ORDER5_FAMILIES_DIGEST = \
    "cb992a8c46adcc897c244844fe450eae9c907b67aac352462ff6bcb587348e07"


def test_every_order_5_prop1_family_and_classification_is_pinned(
        monkeypatch):
    # Each family that prop1-check --order 5 --seed 0 classifies, in
    # order: its masks, flags and certificate, and what each classifier
    # returns on it.
    lines = []
    rule = catalog_module.singleton_cancellative_elements

    def recording(family):
        found = rule(family)
        lines.append(repr((
            family.masks, family.is_subsemigroup,
            family.is_downward_complete, repr(downward_completeness(family)),
            sorted(masks_of(cancellative_elements_bruteforce(family))),
            sorted(masks_of(found)))))
        return found

    monkeypatch.setattr(catalog_module, "singleton_cancellative_elements",
                        recording)
    report = singleton_characterization_check(5, seed=0)
    assert report["families_checked"] == len(lines) == 6145
    assert report["violations"] == []
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == PROP1_ORDER5_FAMILIES_DIGEST


# sha256 of the JSON list of witness reports below, computed before each
# carrier kept its witness sides, when every witness was built afresh.
PROP1_ORDER5_WITNESS_DIGEST = \
    "40032fee90a37189267a4c912dd1a8691b394d74ba3f83b57e745eb1152ab2a3"


def test_witness_reports_on_the_order_5_prop1_families_are_pinned(
        monkeypatch):
    # Every family that prop1-check --order 5 --seed 0 classifies, in
    # order, and the witness of each non-singleton member of the
    # downward-complete ones.
    families = []
    rule = catalog_module.singleton_cancellative_elements

    def recording(family):
        families.append(family)
        return rule(family)

    monkeypatch.setattr(catalog_module, "singleton_cancellative_elements",
                        recording)
    report = singleton_characterization_check(5, seed=0)
    reports = [witness_noncancellative(m, family).report()
               for family in families if family.is_downward_complete
               for m in family.masks if m.bit_count() >= 2]
    assert report["families_checked"] == len(families) == 6145
    assert len(reports) == 40153
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() \
        == PROP1_ORDER5_WITNESS_DIGEST


WITNESS_CARRIERS = {
    "orders_1_to_5": None,
    "order_6_zoo": ORDER_6_ZOO,
    "above_the_cap": [zoo.cyclic_group(7), zoo.min_chain(9)],
}


@pytest.mark.parametrize("carriers", WITNESS_CARRIERS.values(),
                         ids=WITNESS_CARRIERS.keys())
def test_witnesses_equal_the_pair_scan_through_two_families(carriers):
    # Each carrier is a fresh copy, so its witness sides start empty.
    # The closure of {0, 1} asks first and fills them; the full family
    # then reads those sides and adds the rest; both ask once more, so
    # every witness comes from the carrier's sides at least twice.
    if carriers is None:
        carriers = [e.semigroup for n in range(1, 6)
                    for e in enumerate_semigroups(n)
                    if e.semigroup.commutative]
        assert len(carriers) == 399
    cases = set()
    for original in carriers:
        sgr = FiniteSemigroup(original.table)
        full = SubsetFamily(sgr, range(1, 1 << sgr.order))
        if not sgr.commutative:
            with pytest.raises(PreconditionViolated, match="NotCommutative"):
                witness_noncancellative(0b11, full)
            assert sgr._witness_sides is None
            continue
        closure = downward_complete_closure(sgr, [0b11] if sgr.order > 1
                                            else [])
        for family in (closure, full, closure, full):
            for mask in family.masks:
                if mask.bit_count() < 2:
                    continue
                witness = witness_noncancellative(mask, family)
                expected = pair_scan_witness(mask, family)
                assert witness == expected
                assert witness.report() == expected.report()
                cases.add(witness.case_tag)
        sides = sgr._witness_sides or {}
        assert sorted(sides) == [m for m in full.masks
                                 if m.bit_count() >= 2]
        assert all(type(packed) is int for packed in sides.values())
    assert cases == {CASE1, CASE2}


def test_witness_from_the_carriers_sides_is_verified_again(monkeypatch):
    sgr = FiniteSemigroup(Z3.table)
    family = full_family(sgr)
    first = witness_noncancellative(0b011, family)
    assert 0b011 in sgr._witness_sides
    monkeypatch.setattr(cancellation_module, "verify_witness",
                        lambda witness, family: False)
    with pytest.raises(TheoremViolation, match="fails verify_witness"):
        witness_noncancellative(0b011, family)
    monkeypatch.undo()
    assert witness_noncancellative(0b011, family) == first
    # Sides that were kept wrong, here rhs = lhs = {0, 1}, are refused
    # by the same check, not returned.
    sgr._witness_sides[0b011] = 0b011 | 0b011 << 3
    with pytest.raises(TheoremViolation, match="Case1 witness for mask 3"):
        witness_noncancellative(0b011, family)


def test_only_witnesses_fill_a_carriers_sides():
    sgr = FiniteSemigroup(zoo.cyclic_group(4).table)
    family = full_family(sgr)
    build_power_semigroup(sgr)
    cancellative_elements_bruteforce(family)
    singleton_cancellative_elements(family)
    for bad in (0b0001, 0b10000, 2.0):
        with pytest.raises((PreconditionViolated, IndexOutOfRange)):
            witness_noncancellative(bad, family)
    assert sgr._witness_sides is None
    # {0, 2} + {0, 2} = {0, 2} in Z4, and 0 + 2 = 2: a Case2 witness,
    # kept as lhs, rhs << 4 and the case bit << 8.
    witness = witness_noncancellative(SubsetElement(sgr, 0b0101), family)
    assert witness.report() == {"case": "Case2", "multiplier": 0b0101,
                                "lhs": 0b0101, "rhs": 0b0001}
    assert sgr._witness_sides == {0b0101: 0b0101 | 0b0001 << 4 | 1 << 8}


def test_kept_witnesses_equal_constructed_ones():
    # witness_noncancellative builds its witnesses without the frozen
    # dataclass's __init__: each must equal the one the constructor
    # builds from the same fields, in equality, hash, repr and report,
    # and stay frozen. null(3) gives Case1 witnesses, Z5 Case2 ones.
    tags = set()
    for carrier in (zoo.null_semigroup(3), zoo.cyclic_group(5)):
        family = full_family(carrier)
        for mask in family.masks:
            if mask.bit_count() < 2:
                continue
            kept = witness_noncancellative(mask, family)
            built = CancellationWitness(kept.multiplier, kept.lhs, kept.rhs,
                                        kept.case_tag)
            assert type(kept) is CancellationWitness
            assert kept == built and hash(kept) == hash(built)
            assert repr(kept) == repr(built)
            assert kept.report() == built.report()
            assert vars(kept) == vars(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                kept.lhs = kept.rhs
            tags.add(kept.case_tag)
    assert tags == {CASE1, CASE2}
