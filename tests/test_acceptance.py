"""End-to-end acceptance suite: ten criteria, one test each.

Each test prints a single pass line when it succeeds; a pytest failure is
the corresponding fail line. Everything asserted here is exact (set and
integer equality); the only tolerances are the stated runtime budgets.
"""

import itertools
import json
import time

import pytest

from powersemi import (CASE1, CASE2, FiniteSemigroup, Morphism,
                       all_isomorphisms, build_power_semigroup,
                       cancellative_preservation_check, cancellativity_campaign,
                       equality_campaign, find_isomorphism, fingerprint,
                       full_family, global_iso_probe, lift_isomorphism,
                       NumericalMonoid,
                       restrict_isomorphism, singleton_characterization_check,
                       verify_witness, verify_commutativity_transfer,
                       witness_campaign, witness_noncancellative)
from powersemi.catalog import associative_tables
from powersemi import zoo

from oracles import (homomorphisms, is_cancellative_in, isomorphic_bruteforce,
                     mask_product)


def FIXED_TIMER():
    # injected in place of the wall clock to keep reports byte-stable
    return 0.0


def announce(number, text):
    print(f"\n[criterion {number:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def group_isos(catalog):
    """Every isomorphism between (possibly relabeled) groups of order <= 4."""
    groups = [e.semigroup for entries in catalog.values() for e in entries
              if e.semigroup.is_cancellative_semigroup()]
    variants = list(groups)
    for sgr in groups:
        n = sgr.order
        if n > 1:
            perm = list(range(1, n)) + [0]
            inv = [0] * n
            for i, p in enumerate(perm):
                inv[p] = i
            variants.append(FiniteSemigroup(
                [[perm[sgr.rows[inv[i]][inv[j]]] for j in range(n)]
                 for i in range(n)]))
    isos = []
    for left in variants:
        for right in variants:
            isos.extend(all_isomorphisms(left, right))
    return groups, isos


@pytest.fixture(scope="module")
def power_automorphisms():
    out = {}
    for name, sgr in (("P(Z3)", zoo.cyclic_group(3)),
                      ("P(Z4)", zoo.cyclic_group(4))):
        power = build_power_semigroup(sgr)
        out[name] = (sgr, power, list(all_isomorphisms(power, power)))
    return out


@pytest.fixture(scope="module")
def probe_reports(catalog):
    reports = {}
    timings = {}
    for n in (2, 3, 4):
        start = time.perf_counter()
        reports[n] = global_iso_probe(n, entries=catalog[n])
        timings[n] = time.perf_counter() - start
    return reports, timings


def test_criterion_1_classifier_agreement_exhaustive():
    start = time.perf_counter()
    report = singleton_characterization_check(4, seed=0,
                                              closures_per_semigroup=3)
    elapsed = time.perf_counter() - start
    assert report["violations"] == []
    assert report["commutative_semigroups"] == 74  # 1 + 3 + 12 + 58
    assert elapsed < 300
    announce(1, f"classifiers agree on {report['families_checked']} families "
                f"over {report['commutative_semigroups']} commutative "
                f"semigroups of order <= 4 ({elapsed:.1f}s)")


def test_criterion_2_witness_soundness_exhaustive(catalog):
    checked = 0
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            if not sgr.commutative:
                continue
            fam = full_family(sgr)
            rows = sgr.rows
            for mask in fam.masks:
                if mask.bit_count() < 2:
                    continue
                witness = witness_noncancellative(mask, fam)
                mult, lhs, rhs = (witness.multiplier.mask, witness.lhs.mask,
                                  witness.rhs.mask)
                assert lhs != rhs
                assert mask_product(sgr, mult, lhs) == \
                    mask_product(sgr, mult, rhs)
                assert verify_witness(witness, fam)
                # re-derive which case must apply and its extra guarantee
                elems = [x for x in range(sgr.order) if mask >> x & 1]
                case1 = any(rows[a][a] == rows[a][b]
                            for a in elems for b in elems if a != b)
                if case1:
                    assert witness.case_tag == CASE1
                else:
                    assert witness.case_tag == CASE2
                    b = elems[1]
                    assert rhs >> rows[b][b] & 1  # b*b survives the removal
                checked += 1
    # 3*1 + 12*4 + 58*11 subsets across commutative entries of orders 2..4
    assert checked == 689
    announce(2, f"{checked} witnesses verified over every commutative "
                "semigroup of order <= 4 and every subset with >= 2 elements")


def test_criterion_3_singleton_cancellativity_bruteforce(catalog):
    checked = 0
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            fam = full_family(sgr)
            for u in range(sgr.order):
                assert sgr.is_cancellative(u) == \
                    is_cancellative_in(1 << u, fam)
                checked += 1
    announce(3, f"carrier/singleton cancellativity equivalence holds for "
                f"{checked} elements across all 218 catalogued semigroups")


def test_criterion_4_lift_restrict_round_trip(group_isos,
                                              power_automorphisms):
    groups, isos = group_isos
    assert len(groups) == 5  # trivial, Z2, Z3, Z4, Klein
    assert isos
    for iso in isos:
        lifted = lift_isomorphism(iso)
        back = restrict_isomorphism(lifted, full_family(iso.source),
                                    full_family(iso.target))
        assert back == iso
    restricted = 0
    for name, (sgr, power, autos) in power_automorphisms.items():
        assert autos
        fam = full_family(sgr)
        for auto in autos:
            small = restrict_isomorphism(auto, fam, fam)
            assert small.is_isomorphism
            restricted += 1
    announce(4, f"restrict(lift(f)) == f for {len(isos)} group isomorphisms; "
                f"{restricted} power-semigroup automorphisms all restrict")


def test_criterion_5_transfer_checks(group_isos, power_automorphisms,
                                     probe_reports):
    groups, isos = group_isos
    for iso in isos:
        assert cancellative_preservation_check(iso)
        if iso.source.commutative:
            lifted = lift_isomorphism(iso)
            assert verify_commutativity_transfer(
                lifted, full_family(iso.source), full_family(iso.target))
    count = len(isos)
    for name, (sgr, power, autos) in power_automorphisms.items():
        fam = full_family(sgr)
        for auto in autos:
            assert cancellative_preservation_check(auto)
            assert verify_commutativity_transfer(auto, fam, fam)
            count += 1
    reports, _ = probe_reports
    for report in reports.values():
        for ce in report["counterexamples"]:  # expected empty
            left = FiniteSemigroup(ce["left_table"])
            right = FiniteSemigroup(ce["right_table"])
            found = Morphism(build_power_semigroup(left),
                             build_power_semigroup(right), ce["power_map"])
            assert cancellative_preservation_check(found)
    announce(5, f"commutativity transfer and cancellativity preservation "
                f"hold across all {count} discovered isomorphisms")


def test_criterion_6_global_isomorphism_probe(catalog, probe_reports):
    reports, timings = probe_reports
    assert reports[2]["pairs_checked"] == 10
    assert reports[3]["pairs_checked"] == 276
    assert reports[2]["counterexamples"] == []
    assert reports[3]["counterexamples"] == []
    assert timings[2] + timings[3] < 60
    # negatives at orders 2 and 3 re-checked without any pruning at all
    for n in (2, 3):
        powers = [build_power_semigroup(e.semigroup) for e in catalog[n]]
        for i, j in itertools.combinations(range(len(powers)), 2):
            assert isomorphic_bruteforce(powers[i], powers[j]) is None
    assert reports[4]["pairs_checked"] == 17578
    assert reports[4]["counterexamples"] == []
    assert timings[4] < 1800
    announce(6, "probe clean at orders 2 (10 pairs), 3 (276 pairs, both "
                f"brute-force confirmed) and 4 (17578 pairs, "
                f"{timings[4]:.1f}s)")


def test_criterion_7_catalog_cross_check(catalog):
    # orders 1..3 against the naive filter-everything oracle
    expected = {1: 1, 2: 5, 3: 24}
    for n, count in expected.items():
        classes = set()
        for cells in itertools.product(range(n), repeat=n * n):
            rows = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
            if not all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                       for a in range(n) for b in range(n) for c in range(n)):
                continue
            best = None
            for perm in itertools.permutations(range(n)):
                inv = [0] * n
                for i, p in enumerate(perm):
                    inv[p] = i
                flat = tuple(perm[rows[inv[i]][inv[j]]]
                             for i in range(n) for j in range(n))
                if best is None or flat < best:
                    best = flat
            classes.add(best)
        assert len(classes) == count == len(catalog[n])
    # order 4: internal consistency of the pruned enumeration
    entries = catalog[4]
    by_fp = {}
    for entry in entries:
        by_fp.setdefault(entry.fingerprint, []).append(entry)
    for bucket in by_fp.values():
        for a, b in itertools.combinations(bucket, 2):
            assert find_isomorphism(a.semigroup, b.semigroup) is None
    kept = {tuple(v for row in e.semigroup.rows for v in row)
            for e in entries}
    audited = 0
    for idx, table in enumerate(associative_tables(4)):
        if idx % 100 != 0:
            continue
        if tuple(v for row in table for v in row) in kept:
            continue
        sgr = FiniteSemigroup(table)
        mates = by_fp.get(fingerprint(sgr), [])
        assert any(find_isomorphism(sgr, mate.semigroup) for mate in mates)
        audited += 1
    assert audited >= 30
    announce(7, f"class counts 1/5/24 match the naive oracle; order-4 "
                f"catalog internally consistent ({audited} rejected tables "
                "audited back to kept classes)")


def test_criterion_8_numerical_monoid_suite():
    assert NumericalMonoid((2, 3)).gaps == (1,)
    assert NumericalMonoid((3, 5)).gaps == (1, 2, 4, 7)
    eq_report = equality_campaign(trials=100, seed=2026)
    assert eq_report["mismatches"] == []
    assert eq_report["equal_cases"] >= 10
    wit_report = witness_campaign(trials=1000, seed=2026)
    assert wit_report["failures"] == []
    announce(8, "gap sets exact; equality rule agrees with membership on "
                "100 seeded monoid pairs; 1000 seeded witnesses verified")


def test_criterion_9_free_word_campaign():
    report = cancellativity_campaign(alphabet=4, trials=10000, seed=2026,
                                     max_word_len=6)
    assert report["trials"] == 10000
    assert report["violations"] == []
    assert report["disjointness_failures"] == []
    announce(9, "10000 seeded free-word trials: letter sets always separate "
                "word sets, leading-letter disjointness never fails")


def test_criterion_10_determinism(catalog):
    runs = []
    for _ in range(2):
        runs.append((
            json.dumps(global_iso_probe(3, entries=catalog[3],
                                        timer=FIXED_TIMER)),
            json.dumps(singleton_characterization_check(3, seed=42)),
            json.dumps(equality_campaign(trials=40, seed=42)),
            json.dumps(witness_campaign(trials=60, seed=42)),
            json.dumps(cancellativity_campaign(trials=300, seed=42)),
        ))
    assert runs[0] == runs[1]
    announce(10, "probe, classifier check, and all three campaigns emit "
                 "byte-identical reports when reseeded")


def test_identity_preservation_for_surjective_homomorphisms(catalog):
    """Companion check: surjective maps between catalogued monoids send
    identity to identity, over the exhaustive map search."""
    monoids = [e.semigroup for n in (1, 2, 3) for e in catalog[n]
               if e.semigroup.identity is not None]
    pairs_checked = 0
    homs_checked = 0
    for source in monoids:
        for target in monoids:
            pairs_checked += 1
            for hom in homomorphisms(source, target, surjective_only=True):
                assert hom.mapping[source.identity] == target.identity
                homs_checked += 1
    assert homs_checked > len(monoids)  # identities alone guarantee this many
    print(f"\n[companion  ] PASS - {homs_checked} surjective homomorphisms "
          f"over {pairs_checked} monoid pairs all preserve the identity")
