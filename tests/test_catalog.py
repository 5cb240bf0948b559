import hashlib
import itertools
import json
import random
from collections import Counter
from math import factorial

import numpy as np
import pytest

import powersemi.catalog as catalog_module
import powersemi.semigroups as semigroups_module
from powersemi import (CatalogEntry, FiniteSemigroup, IsoFingerprint,
                       OrderUnsupported,
                       PreconditionViolated, TheoremViolation,
                       associative_tables, build_power_semigroup,
                       build_power_semigroups, canonical_tables,
                       enumerate_semigroups, find_isomorphism, fingerprints,
                       global_iso_probe, singleton_characterization_check)

from oracles import (all_automorphisms_bruteforce, isomorphic_bruteforce,
                     naive_is_associative, semigroup_state)


def canonical_form(table):
    """The lexicographically least relabeling of a table, by brute force
    over all n! relabelings at once."""
    t = np.asarray(table)
    n = len(t)
    perms = np.array(list(itertools.permutations(range(n))))
    inv = np.argsort(perms, axis=1)
    cells = t[inv[:, :, None], inv[:, None, :]].reshape(len(perms), -1)
    relabeled = np.take_along_axis(perms, cells, axis=1)
    least = np.lexsort(relabeled.T[::-1])[0]
    return tuple(relabeled[least].tolist())


def naive_enumeration(n):
    """Oracle: filter all n**(n*n) tables, bucket by canonical form."""
    classes = set()
    labeled = 0
    for cells in itertools.product(range(n), repeat=n * n):
        rows = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
        if naive_is_associative(rows, n):
            labeled += 1
            classes.add(canonical_form(rows))
    return labeled, classes


@pytest.mark.parametrize("n,labeled_expected,classes_expected",
                         [(1, 1, 1), (2, 8, 5), (3, 113, 24)])
def test_enumeration_matches_naive_oracle(n, labeled_expected,
                                          classes_expected):
    labeled, classes = naive_enumeration(n)
    assert labeled == labeled_expected
    assert len(classes) == classes_expected
    dfs_labeled = [tuple(v for row in t for v in row)
                   for t in associative_tables(n)]
    assert len(dfs_labeled) == labeled
    entries = enumerate_semigroups(n)
    reps = {tuple(v for row in e.semigroup.rows for v in row)
            for e in entries}
    # representatives are exactly the canonical forms
    assert reps == classes


def test_order_four_catalog_size(catalog):
    assert len(catalog[4]) == 188
    labeled = sum(1 for _ in associative_tables(4))
    assert labeled == 3492


def test_catalog_entries_pairwise_nonisomorphic(catalog):
    for entries in catalog.values():
        buckets = {}
        for entry in entries:
            buckets.setdefault(entry.fingerprint, []).append(entry)
        for bucket in buckets.values():
            for a, b in itertools.combinations(bucket, 2):
                assert find_isomorphism(a.semigroup, b.semigroup) is None


def test_rejected_tables_are_isomorphic_to_kept_ones(catalog):
    kept = {tuple(v for row in e.semigroup.rows for v in row)
            for e in catalog[4]}
    by_fp = {}
    for entry in catalog[4]:
        by_fp.setdefault(entry.fingerprint, []).append(entry)
    audited = 0
    for idx, table in enumerate(associative_tables(4)):
        if idx % 100 != 0:  # ~1% sample of the 3492 labeled tables
            continue
        flat = tuple(v for row in table for v in row)
        if flat in kept:
            continue
        from powersemi import FiniteSemigroup, fingerprint
        sgr = FiniteSemigroup(table)
        mates = by_fp.get(fingerprint(sgr), [])
        assert any(find_isomorphism(sgr, mate.semigroup) for mate in mates)
        audited += 1
    assert audited > 20


def orbit_minimal(table, n):
    """True iff no relabeling of the table is lexicographically smaller."""
    flat = tuple(v for row in table for v in row)
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        for idx in range(n * n):
            i, j = divmod(idx, n)
            v = perm[table[inv[i]][inv[j]]]
            if v < flat[idx]:
                return False
            if v > flat[idx]:
                break
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_tables_are_the_orbit_minimal_labeled_tables(n):
    # The unpruned search is the independent reference: associative_tables
    # relabels the canonical tables, so filtering its own output would
    # compare the canonical tables with their own orbits.
    labeled = list(catalog_module._fill(n, ()))
    assert associative_tables(n) == labeled
    assert list(canonical_tables(n)) == \
        [t for t in labeled if orbit_minimal(t, n)]


# OEIS A027851 (classes up to isomorphism), A023814 (labeled tables),
# A001423 (classes up to isomorphism or anti-isomorphism), and the classes
# of commutative semigroups (A023815), monoids (A058129) and bands, in
# which every element is idempotent (A058112).
CLASSES = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}
LABELED = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}
CLASSES_UP_TO_DUALITY = {1: 1, 2: 4, 3: 18, 4: 126, 5: 1160}
COMMUTATIVE = {1: 1, 2: 3, 3: 12, 4: 58, 5: 325}
MONOIDS = {1: 1, 2: 2, 3: 7, 4: 35, 5: 228}
BANDS = {1: 1, 2: 3, 3: 10, 4: 46, 5: 251}
LABELED_5_SHA256 = \
    "2b680c609935492369e607d3d715f3d7a7981d486cb8cb67445f5b808fe9e665"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_catalog_counts_match_published_sequences(n):
    entries = enumerate_semigroups(n)
    assert len(entries) == CLASSES[n]
    semigroups = [e.semigroup for e in entries]
    assert sum(s.commutative for s in semigroups) == COMMUTATIVE[n]
    assert sum(s.identity is not None for s in semigroups) == MONOIDS[n]
    assert sum(len(s.idempotents()) == n for s in semigroups) == BANDS[n]
    labeled = associative_tables(n)
    assert len(labeled) == LABELED[n]
    if n == 5:  # the digest of the unpruned search's order-5 tables
        assert hashlib.sha256(json.dumps(labeled).encode()).hexdigest() == \
            LABELED_5_SHA256
    # S and its transposed (anti-isomorphic) table are one class up to
    # duality; each catalog table is its own canonical form.
    tables = [tuple(v for row in e.semigroup.rows for v in row)
              for e in entries]
    assert all(canonical_form(e.semigroup.table) == table
               for e, table in zip(entries, tables))
    duality_classes = {min(table, canonical_form(e.semigroup.table.T))
                       for e, table in zip(entries, tables)}
    assert len(duality_classes) == CLASSES_UP_TO_DUALITY[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_stabilizer_count_of_labeled_tables(n):
    # A class S of order n has n!/|Aut S| labeled tables, so the canonical
    # catalog determines the labeled count without generating it.
    entries = enumerate_semigroups(n)
    assert sum(factorial(n) // len(all_automorphisms_bruteforce(e.semigroup))
               for e in entries) == LABELED[n]


def test_unsupported_orders():
    with pytest.raises(OrderUnsupported):
        enumerate_semigroups(0)
    with pytest.raises(OrderUnsupported):
        enumerate_semigroups(6)
    for n in (0, -1, 6, 2.0, "2", True):
        with pytest.raises(OrderUnsupported):
            associative_tables(n)
    # Orders above 7 are refused before the n! relabelings are built.
    for n in (0, -1, 2.0, "2", None, 8, 10 ** 6):
        with pytest.raises(OrderUnsupported):
            canonical_tables(n)


def test_canonical_ids_are_stable(catalog):
    again = enumerate_semigroups(3)
    assert [e.canonical_id for e in again] == \
        [e.canonical_id for e in catalog[3]]
    assert [e.semigroup.rows for e in again] == \
        [e.semigroup.rows for e in catalog[3]]


def test_each_order_is_built_once():
    first = enumerate_semigroups(4)
    second = enumerate_semigroups(4)
    assert len(first) == len(second)
    assert all(a is b for a, b in zip(first, second))


def test_catalog_rejects_isomorphic_tables(monkeypatch):
    # Two labelings of the two-element chain, one per class by mistake.
    monkeypatch.setattr(catalog_module, "canonical_tables",
                        lambda n: iter([[[0, 0], [0, 1]], [[0, 1], [1, 1]]]))
    with pytest.raises(TheoremViolation, match=r"\(2, 0\) and \(2, 1\)"):
        catalog_module._catalog.__wrapped__(2)


def test_catalog_and_power_tables_are_read_only_uint8(catalog):
    for entries in catalog.values():
        for entry in entries:
            for table in (entry.semigroup.table,
                          build_power_semigroup(entry.semigroup).table):
                assert table.dtype == np.uint8
                assert not table.flags.writeable


def test_probe_order_two():
    report = global_iso_probe(2, timer=lambda: 0.0)
    assert report["pairs_checked"] == 10
    assert report["classes"] == 5
    assert report["counterexamples"] == []
    assert report["pruned_by_fingerprint"] + len(report["counterexamples"]) <= 10


@pytest.mark.parametrize("n,survivors,bucket_sizes", [
    (4, 0, {1: 188}),
    (5, 5, {1: 1905, 2: 5}),
])
def test_probe_counts_and_power_fingerprint_buckets(n, survivors,
                                                    bucket_sizes):
    # Pins the pruning: a fingerprint change that merges or splits buckets
    # changes these numbers.
    report = global_iso_probe(n, timer=lambda: 0.0)
    classes = CLASSES[n]
    pairs = classes * (classes - 1) // 2
    assert report == {"order": n, "classes": classes, "pairs_checked": pairs,
                      "counterexamples": [],
                      "pruned_by_fingerprint": pairs - survivors,
                      "elapsed_ms": 0}
    entries = enumerate_semigroups(n)
    sizes = Counter(Counter(e.power_fingerprint() for e in entries).values())
    assert sizes == bucket_sizes


def test_probe_order_three_negatives_hold_up_to_bruteforce(catalog):
    report = global_iso_probe(3, entries=catalog[3])
    assert report["pairs_checked"] == 276
    assert report["counterexamples"] == []
    powers = [build_power_semigroup(e.semigroup) for e in catalog[3]]
    # spot-check a slice of the negatives without any fingerprint pruning
    for i, j in list(itertools.combinations(range(len(powers)), 2))[::7]:
        assert isomorphic_bruteforce(powers[i], powers[j]) is None


def test_probe_requires_n_to_be_the_order_of_its_entries(catalog):
    for n, entries in ((2, catalog[3]), (4, catalog[3]), (3.0, catalog[3]),
                       ("3", catalog[3]), (True, catalog[1]),
                       (3, catalog[3] + catalog[2][:1])):
        with pytest.raises(PreconditionViolated):
            global_iso_probe(n, entries=entries)
    assert global_iso_probe(3, entries=catalog[3])["classes"] == 24


def test_probe_report_is_deterministic(catalog):
    one = global_iso_probe(3, entries=catalog[3], timer=lambda: 0.0)
    two = global_iso_probe(3, entries=catalog[3], timer=lambda: 0.0)
    assert json.dumps(one) == json.dumps(two)


def test_characterization_check_small_orders():
    report = singleton_characterization_check(2, seed=5)
    assert report["violations"] == []
    assert report["commutative_semigroups"] == 4  # orders 1 and 2 combined
    report = singleton_characterization_check(3, seed=5)
    assert report["violations"] == []


@pytest.mark.parametrize("n", [0, -1, 6])
def test_characterization_check_rejects_unsupported_orders_up_front(
        n, monkeypatch):
    def started(*args, **kwargs):
        raise RuntimeError("enumeration started before the order check")

    monkeypatch.setattr(catalog_module, "enumerate_semigroups", started)
    with pytest.raises(OrderUnsupported):
        singleton_characterization_check(n)


@pytest.mark.parametrize("closures", [-1, True, 1.5, "2", None])
def test_characterization_check_rejects_bad_closure_counts_up_front(
        closures, monkeypatch):
    def started(*args, **kwargs):
        raise RuntimeError("enumeration started before the argument check")

    monkeypatch.setattr(catalog_module, "enumerate_semigroups", started)
    with pytest.raises(PreconditionViolated, match="closures_per_semigroup"):
        singleton_characterization_check(2, closures_per_semigroup=closures)


def test_characterization_check_deterministic():
    one = singleton_characterization_check(2, seed=9)
    two = singleton_characterization_check(2, seed=9)
    assert json.dumps(one) == json.dumps(two)


def test_group_entries_of_small_orders(catalog):
    # finite cancellative semigroups must be groups: identity plus inverses
    for entries in catalog.values():
        for entry in entries:
            sgr = entry.semigroup
            if sgr.is_cancellative_semigroup():
                assert sgr.identity is not None
                e = sgr.identity
                for x in range(sgr.order):
                    assert any(sgr.rows[x][y] == e == sgr.rows[y][x]
                               for y in range(sgr.order))


def test_catalog_semigroups_equal_one_at_a_time_construction(catalog):
    for n, entries in catalog.items():
        assert [semigroup_state(e.semigroup) for e in entries] == \
            [semigroup_state(FiniteSemigroup(t)) for t in canonical_tables(n)]


def test_probe_builds_no_rows_for_pruned_power_tables(monkeypatch):
    # Power tables are built only for the entries that share a power
    # fingerprint with another, and each of them once: none at order 4,
    # 10 at order 5. The fingerprints stay cached on the entries, so
    # power_fingerprint builds nothing.
    built = []

    def counting(semigroups):
        semigroups = list(semigroups)
        built.extend(semigroups)
        return build_power_semigroups(semigroups)

    def refuse(semigroups):
        raise AssertionError("a cached power fingerprint was recomputed")

    for n, survivors in ((4, 0), (5, 10)):
        entries = [CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
                   for e in enumerate_semigroups(n)]
        want = fingerprints(build_power_semigroups(
            e.semigroup for e in entries))
        shared = Counter(want)
        built.clear()
        monkeypatch.setattr(catalog_module, "build_power_semigroups",
                            counting)
        report = global_iso_probe(n, entries=entries)
        assert report["pruned_by_fingerprint"] == report["pairs_checked"] \
            - sum(k * (k - 1) // 2 for k in shared.values())
        assert len(built) == survivors
        assert built == [e.semigroup for e, fp in zip(entries, want)
                         if shared[fp] > 1]
        monkeypatch.setattr(catalog_module, "power_fingerprints", refuse)
        assert [e.power_fingerprint() for e in entries] == want
        assert len(built) == survivors
        monkeypatch.undo()


def test_probe_caches_survivor_profiles_from_the_kernel(monkeypatch):
    # The 10 order-5 power tables the probe rebuilds get their profiles
    # from one _profile_rows stack: the scalar loop of the profiles
    # property never runs, and the cached rows equal the loop's on fresh
    # copies, element types included.
    entries = [CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
               for e in enumerate_semigroups(5)]
    built, stacks = [], []

    def recording(semigroups):
        powers = build_power_semigroups(semigroups)
        built.extend(powers)
        return powers

    def counting(tables, buffer):
        stacks.append(tables.shape)
        return kernel(tables, buffer)

    def cached_only(semigroup):
        assert semigroup._profiles is not None, "the scalar loop ran"
        return semigroup._profiles

    kernel = semigroups_module._profile_rows
    monkeypatch.setattr(catalog_module, "build_power_semigroups", recording)
    monkeypatch.setattr(semigroups_module, "_profile_rows", counting)
    monkeypatch.setattr(FiniteSemigroup, "profiles", property(cached_only))
    report = global_iso_probe(5, entries=entries)
    monkeypatch.undo()
    assert report["counterexamples"] == [] and len(built) == 10
    assert stacks == [(31, 31, 10)]
    for power in built:
        loop = FiniteSemigroup(power.rows).profiles
        assert power._profiles == loop
        assert {tuple(map(type, row)) for row in power._profiles} == \
            {(bool, int, int, int, int, int)}


def test_power_cache_is_not_a_constructor_argument():
    entries = enumerate_semigroups(3)
    fresh = [CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
             for e in entries]
    # A fourth argument would be taken as P(S)'s fingerprint unchecked.
    with pytest.raises(TypeError):
        CatalogEntry(entries[0].semigroup, entries[0].canonical_id,
                     entries[0].fingerprint,
                     entries[1].power_fingerprint())
    with pytest.raises(TypeError):
        CatalogEntry(entries[0].semigroup, entries[0].canonical_id,
                     entries[0].fingerprint,
                     _power_fingerprint=entries[1].power_fingerprint())
    global_iso_probe(3, entries=fresh)
    assert [entry._power_fingerprint for entry in fresh] == \
        fingerprints(build_power_semigroups(e.semigroup for e in entries))
    assert fresh == [CatalogEntry(e.semigroup, e.canonical_id, e.fingerprint)
                     for e in entries]


@pytest.mark.parametrize("sizes", [
    [1] * 20 + [2] * 5 + [3] + [4] * 3 + [6],
    [1] * 30,
    [6, 1],
    [],
], ids=["buckets_1_2_3_4_6", "no_repeats", "one_bucket", "empty"])
def test_same_fingerprint_pairs_match_all_pairs(sizes):
    # Buckets of these sizes, their members shuffled: the pairs must be
    # those of an all-pairs comparison, in ascending order. The first
    # case has the bucket sizes of the order-6 power fingerprints.
    fps = [IsoFingerprint(bool(b % 2), bytes([b, size]))
           for b, size in enumerate(sizes) for _ in range(size)]
    random.Random(len(fps)).shuffle(fps)
    want = [(i, j) for i, j in itertools.combinations(range(len(fps)), 2)
            if fps[i] == fps[j]]
    assert catalog_module._same_fingerprint_pairs(fps) == want
    assert len(want) == sum(k * (k - 1) // 2 for k in sizes)
