import os
import random
import subprocess
import sys
from itertools import chain, combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

import powersemi
import powersemi.morphisms as morphisms_module
import powersemi.semigroups as semigroups_module

from powersemi import (FiniteSemigroup, Morphism, PreconditionViolated,
                       SubsetFamily, all_isomorphisms, build_power_semigroup,
                       cancellative_preservation_check,
                       describe_fingerprint_mismatch, enumerate_semigroups,
                       find_isomorphism, fingerprint, fingerprints,
                       full_family, lift_isomorphism, restrict_isomorphism,
                       singleton_family, verify_commutativity_transfer)
from powersemi import zoo

from oracles import (all_automorphisms_bruteforce, describe_tuple_mismatch,
                     homomorphisms, isomorphic_bruteforce, tuple_fingerprint)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import relabeled_power_search  # noqa: E402


def relabel(sgr, perm):
    n = sgr.order
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return FiniteSemigroup(
        [[perm[sgr.rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)])


def test_morphism_flags():
    z3 = zoo.cyclic_group(3)
    identity = Morphism(z3, z3, [0, 1, 2])
    assert identity.is_isomorphism
    doubling = Morphism(z3, z3, [0, 2, 1])  # negation, an automorphism
    assert doubling.is_isomorphism
    collapse = Morphism(z3, z3, [0, 0, 0])
    assert collapse.is_homomorphism and not collapse.is_injective
    broken = Morphism(z3, z3, [0, 1, 1])
    assert not broken.is_homomorphism


@pytest.mark.parametrize("images, message", [
    ([0, 1], "map has 2 entries for a source of order 3"),
    ([0, 1, 3], "map image outside the target carrier"),
], ids=["wrong-length", "image-out-of-range"])
def test_morphism_rejects_a_map_that_does_not_fit_the_carriers(images,
                                                               message):
    z3 = zoo.cyclic_group(3)
    with pytest.raises(PreconditionViolated, match=message):
        Morphism(z3, z3, images)


@pytest.mark.parametrize("images", [[0, 1.9, 2], [0, 1.0, 2], [0, "1", 2],
                                    [0, None, 2], [0, True, 2],
                                    [0, np.True_, 2], [0, np.float64(1), 2]],
                         ids=["float", "integral-float", "string", "none",
                              "bool", "numpy-bool", "numpy-float"])
def test_morphism_rejects_non_integer_images(images):
    z3 = zoo.cyclic_group(3)
    with pytest.raises(PreconditionViolated, match="must be integers"):
        Morphism(z3, z3, images)


def test_morphism_accepts_numpy_integer_images():
    z3 = zoo.cyclic_group(3)
    for images in (np.array([0, 2, 1]), [np.int64(0), np.uint8(2), 1]):
        morphism = Morphism(z3, z3, images)
        assert morphism.mapping == (0, 2, 1) and morphism.is_isomorphism
        assert [type(v) for v in morphism.mapping] == [int, int, int]


def test_find_isomorphism_identity_case():
    z2 = zoo.cyclic_group(2)
    found = find_isomorphism(z2, zoo.cyclic_group(2))
    assert found is not None and found.mapping == (0, 1)


def test_z4_and_klein_are_not_isomorphic():
    z4, klein = zoo.cyclic_group(4), zoo.klein_four()
    assert find_isomorphism(z4, klein) is None
    assert isomorphic_bruteforce(z4, klein) is None
    reason = describe_fingerprint_mismatch(fingerprint(z4), fingerprint(klein))
    assert reason is not None


def test_left_zero_and_right_zero_are_not_isomorphic():
    left, right = zoo.left_zero(2), zoo.right_zero(2)
    assert find_isomorphism(left, right) is None
    assert isomorphic_bruteforce(left, right) is None


def test_relabelings_are_always_found():
    for sgr in (zoo.cyclic_group(4), zoo.min_chain(3), zoo.left_zero(3),
                zoo.null_semigroup(3)):
        for perm in permutations(range(sgr.order)):
            other = relabel(sgr, perm)
            found = find_isomorphism(sgr, other)
            assert found is not None and found.is_isomorphism


def test_search_agrees_with_bruteforce_on_all_order3_pairs(catalog):
    for a, b in combinations(catalog[3], 2):
        ours = find_isomorphism(a.semigroup, b.semigroup)
        brute = isomorphic_bruteforce(a.semigroup, b.semigroup)
        assert (ours is None) == (brute is None)


def test_search_is_symmetric(catalog):
    for a, b in combinations(catalog[3][:12], 2):
        left = find_isomorphism(a.semigroup, b.semigroup)
        right = find_isomorphism(b.semigroup, a.semigroup)
        assert (left is None) == (right is None)


def test_fingerprint_mismatch_implies_nonisomorphic(catalog):
    for a, b in combinations(catalog[3], 2):
        if a.fingerprint != b.fingerprint:
            assert isomorphic_bruteforce(a.semigroup, b.semigroup) is None


def test_fingerprint_stores_identity_and_sorted_profiles(catalog):
    # Order, commutativity and idempotent count are read from the sorted
    # profile bytes and agree with the semigroup's own flags.
    assert powersemi.IsoFingerprint._fields == ("has_identity", "profiles")
    carriers = [e.semigroup for entries in catalog.values() for e in entries]
    for sgr in carriers + powersemi.build_power_semigroups(carriers):
        fp = fingerprint(sgr)
        oracle = tuple_fingerprint(sgr)
        assert type(fp.profiles) is bytes
        assert fp == (oracle.has_identity,
                      bytes(chain.from_iterable(oracle.profiles)))
        assert (fp.order, fp.commutative, fp.idempotent_count) == (
            sgr.order, sgr.commutative, len(sgr.idempotents()))


def test_byte_fingerprints_match_the_tuple_oracle():
    # Every class of orders 1-5 and its power table: the bytes are the
    # oracle's sorted rows, and both group the 4,266 tables into the same
    # buckets; every pair of tables from carriers of order <= 3 gets the
    # oracle's mismatch text.
    carriers = [e.semigroup for n in range(1, 6)
                for e in enumerate_semigroups(n)]
    tables = carriers + powersemi.build_power_semigroups(carriers)
    assert len(tables) == 4266
    found = fingerprints(tables)
    oracles = [tuple_fingerprint(s) for s in tables]
    for fp, oracle in zip(found, oracles):
        assert fp.has_identity == oracle.has_identity
        assert fp.profiles == bytes(chain.from_iterable(oracle.profiles))

    def buckets(keys):
        groups = {}
        for position, key in enumerate(keys):
            groups.setdefault(key, []).append(position)
        return sorted(groups.values())

    assert buckets(found) == buckets(oracles)
    small = [p for p, s in enumerate(tables)
             if s.order <= 3 or s.order == 7]
    assert len(small) == 60
    for i, j in product(small, repeat=2):
        assert describe_fingerprint_mismatch(found[i], found[j]) \
            == describe_tuple_mismatch(oracles[i], oracles[j])


def test_fingerprint_invariant_under_relabeling():
    sgr = zoo.min_chain(4)
    for perm in permutations(range(4)):
        assert fingerprint(relabel(sgr, perm)) == fingerprint(sgr)


PROFILE_TYPES = [bool, int, int, int, int, int]


def kernel_profiles(semigroups):
    """Per semigroup, the profile rows _profile_rows gives it inside the
    stacks fingerprints makes, as lists."""
    found = [None] * len(semigroups)
    cells = semigroups_module._BATCH_CELLS
    for positions, tables in semigroups_module._table_stacks(
            semigroups, lambda n: max(1, cells // (n * n))):
        rows = semigroups_module._profile_rows(tables).tolist()
        for p, table_rows in zip(positions, rows):
            found[p] = table_rows
    return found


def assert_batch_matches_loop(semigroups):
    """fingerprints on fresh copies gives, for each table, the fingerprint
    the Python loop of the profiles property gives on another fresh copy,
    in input order, and computes no profiles on the copies; _profile_rows
    on the same stacks gives every element the loop's profile."""
    batch = [FiniteSemigroup(s.rows) for s in semigroups]
    found = fingerprints(batch)
    assert len(found) == len(batch)
    assert all(copy._profiles is None for copy in batch)
    for sgr, rows, fp in zip(semigroups, kernel_profiles(batch), found,
                             strict=True):
        single = FiniteSemigroup(sgr.rows)
        loop = single.profiles
        assert len(rows) == len(loop)
        for got, want in zip(rows, loop):
            assert tuple(got) == want
            assert [type(v) for v in want] == PROFILE_TYPES
        assert fp == fingerprint(single)


def test_profile_kernel_matches_loop_on_catalog_and_power_tables():
    # Every class of orders 1-5 and its power semigroup (orders 1, 3, 7,
    # 15 and 31) in one call, so the call mixes eight orders and the 1,915
    # order-31 tables span several chunks, the last one partial.
    carriers = [e.semigroup for n in range(1, 6)
                for e in enumerate_semigroups(n)]
    powers = [build_power_semigroup(s) for s in carriers]
    assert len(carriers) + len(powers) == 4266
    per_chunk = semigroups_module._BATCH_CELLS // 31 ** 2
    assert 1915 > per_chunk and 1915 % per_chunk
    mixed = [s for pair in zip(carriers, powers) for s in pair]
    assert_batch_matches_loop(mixed)


def test_profile_kernel_matches_loop_on_seeded_relabelings():
    rng = random.Random(20)
    semigroups = []
    for entry in rng.sample(enumerate_semigroups(5), 60):
        perm = list(range(5))
        rng.shuffle(perm)
        sgr = relabel(entry.semigroup, perm)
        semigroups += [sgr, build_power_semigroup(sgr)]
    for sgr in (zoo.cyclic_group(7), zoo.null_semigroup(9), zoo.left_zero(6),
                zoo.min_chain(8), build_power_semigroup(zoo.cyclic_group(6)),
                build_power_semigroup(zoo.min_chain(6))):
        perm = list(range(sgr.order))
        rng.shuffle(perm)
        semigroups.append(relabel(sgr, perm))
    # Order MAX_ORDER, unrelabeled: entry 63 sets the top bit of the
    # kernel's 64-bit sets, and right_zero's rows and left_zero's columns
    # count 64 distinct values.
    semigroups += [zoo.cyclic_group(64), zoo.left_zero(64),
                   zoo.right_zero(64), zoo.min_chain(64),
                   FiniteSemigroup([[63] * 64] * 64)]
    assert_batch_matches_loop(semigroups)


def test_profile_kernel_waits_for_the_longest_cycle_of_a_stack():
    # The kernel stops once no element of a stack gains a power. Each
    # order's stack puts the cyclic group, whose generator has all n
    # elements as powers, between tables whose cycles close within two
    # steps (null, min_chain) and a power table, so stopping when the
    # first or the last table settles gets the cyclic group wrong.
    powers = {p.order: p for p in (
        build_power_semigroup(s) for s in (
            zoo.null_semigroup(2), zoo.cyclic_group(3), zoo.min_chain(4),
            zoo.left_zero(5), zoo.cyclic_group(6)))}
    semigroups = []
    for n in range(1, 65):
        semigroups += [zoo.null_semigroup(n), zoo.cyclic_group(n)]
        semigroups += [powers[n]] if n in powers else []
        semigroups.append(zoo.min_chain(n))
    assert len(semigroups) == 64 * 3 + 5
    assert_batch_matches_loop(semigroups)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
def test_profile_kernel_matches_loop_at_word_boundaries(n):
    # The kernel keeps n-bit sets in uint8 up to 8 elements, uint16 up to
    # 16, uint32 up to 32 and uint64 up to 64. In each table below the
    # top element n - 1 sets the top bit of a set: the cyclic group's
    # powers and rows, right_zero's rows, left_zero's columns, and every
    # row and column of the constant table, which a set one word too
    # narrow would count as empty.
    assert_batch_matches_loop([
        zoo.cyclic_group(n), zoo.right_zero(n), zoo.left_zero(n),
        zoo.min_chain(n), FiniteSemigroup([[n - 1] * n] * n)])


def test_profiles_are_cached_and_read_by_the_search():
    sgr = zoo.min_chain(4)
    other = relabel(sgr, [2, 0, 3, 1])
    profiles = sgr.profiles
    assert sgr.profiles is profiles
    assert fingerprints([sgr]) == [fingerprint(sgr)]
    assert sgr._profiles is profiles
    assert find_isomorphism(sgr, other) is not None
    cached = other._profiles
    assert cached is not None
    assert find_isomorphism(sgr, other) is not None
    assert other._profiles is cached


def test_all_isomorphisms_matches_bruteforce_automorphisms(catalog):
    # The zoo, every carrier of orders 2-4, and every power table whose
    # automorphisms brute force can scan (carriers of order <= 3).
    carriers = [e.semigroup for n in (2, 3, 4) for e in catalog[n]]
    powers = [build_power_semigroup(s) for s in carriers if s.order <= 3]
    assert len(powers) == 29
    for sgr in (zoo.cyclic_group(3), zoo.cyclic_group(4), zoo.klein_four(),
                zoo.min_chain(3), zoo.left_zero(3), *carriers, *powers):
        ours = sorted(m.mapping for m in all_isomorphisms(sgr, sgr))
        brute = sorted(all_automorphisms_bruteforce(sgr))
        assert ours == brute
    # The six nonempty sets other than {0} are twins in P(null_semigroup(3)):
    # a search that skipped twins after a map would yield 1 of 720.
    null_power = build_power_semigroup(zoo.null_semigroup(3))
    assert len(list(all_isomorphisms(null_power, null_power))) == 720


# Carriers whose power-level search ran for minutes under some
# relabelings before the search skipped twins.
REPEAT_OFFENDERS = (1, 19, 20, 39, 52, 60, 136, 250, 288, 1106, 1331, 1631)


@pytest.mark.parametrize("carriers", [REPEAT_OFFENDERS, range(100)],
                         ids=["repeat_offenders", "first_100"])
def test_power_level_search_finds_relabeled_copies_in_time(carriers):
    # Two seeded relabelings of each order-5 carrier; each search gets 2 s,
    # where a typical one takes a few milliseconds. The first 100 carriers
    # catch unsound pruning: skipping elements that share only their rows
    # misses the map of 121 of the 1,915 carriers under seed-0 relabelings.
    catalog5 = enumerate_semigroups(5)
    failures, _ = relabeled_power_search.search_failures(
        [(f"(5, {k})", catalog5[k].semigroup) for k in carriers
         for _ in range(2)], seed=24)
    assert failures == []


def test_lift_of_identity_is_identity():
    z3 = zoo.cyclic_group(3)
    lifted = lift_isomorphism(Morphism(z3, z3, [0, 1, 2]))
    assert lifted.mapping == tuple(range(7))


def test_lift_of_negation_moves_doubletons():
    z3 = zoo.cyclic_group(3)
    lifted = lift_isomorphism(Morphism(z3, z3, [0, 2, 1]))
    # {0,1} has mask 3 (index 2); its image {0,2} has mask 5 (index 4)
    assert lifted.mapping[2] == 4
    assert lifted.is_isomorphism


def test_lift_restricted_to_singletons_is_the_original():
    z4 = zoo.cyclic_group(4)
    negation = Morphism(z4, z4, [0, 3, 2, 1])
    lifted = lift_isomorphism(negation)
    for x in range(4):
        image_index = lifted.mapping[(1 << x) - 1]
        assert image_index + 1 == 1 << negation.mapping[x]


def test_lift_preserves_cardinality():
    z4 = zoo.cyclic_group(4)
    lifted = lift_isomorphism(Morphism(z4, z4, [0, 3, 2, 1]))
    for mask in range(1, 16):
        image_mask = lifted.mapping[mask - 1] + 1
        assert image_mask.bit_count() == mask.bit_count()


def test_lift_builds_both_power_semigroups_in_one_stack(monkeypatch):
    calls = []
    build = morphisms_module.build_power_semigroups

    def counted(semigroups):
        calls.append(len(semigroups))
        return build(semigroups)

    monkeypatch.setattr(morphisms_module, "build_power_semigroups", counted)
    z4 = zoo.cyclic_group(4)
    target = relabel(z4, [2, 0, 3, 1])
    lifted = lift_isomorphism(find_isomorphism(z4, target))
    assert calls == [2]
    assert lifted.source == build_power_semigroup(z4)
    assert lifted.target == build_power_semigroup(target)


def test_lift_rejects_non_isomorphisms():
    z3 = zoo.cyclic_group(3)
    with pytest.raises(PreconditionViolated):
        lift_isomorphism(Morphism(z3, z3, [0, 0, 0]))


def test_restrict_round_trips_the_lift():
    z3 = zoo.cyclic_group(3)
    klein = zoo.klein_four()
    for sgr, mapping in ((z3, [0, 2, 1]), (klein, [0, 2, 1, 3])):
        original = Morphism(sgr, sgr, mapping)
        assert original.is_isomorphism
        lifted = lift_isomorphism(original)
        back = restrict_isomorphism(lifted, full_family(sgr), full_family(sgr))
        assert back == original


def test_every_power_automorphism_restricts(catalog):
    for sgr in (zoo.cyclic_group(3), zoo.cyclic_group(4)):
        power = build_power_semigroup(sgr)
        fam = full_family(sgr)
        autos = list(all_isomorphisms(power, power))
        assert autos, "search must find at least the identity"
        for auto in autos:
            small = restrict_isomorphism(auto, fam, fam)
            assert small.is_isomorphism


def test_restrict_precondition_failures():
    z2 = zoo.cyclic_group(2)
    null2 = zoo.null_semigroup(2)
    power_iso = find_isomorphism(build_power_semigroup(z2),
                                 build_power_semigroup(z2))
    with pytest.raises(PreconditionViolated):
        restrict_isomorphism(power_iso, full_family(z2), full_family(null2))
    bad_map = Morphism(build_power_semigroup(z2), build_power_semigroup(z2),
                       [0, 0, 0])
    with pytest.raises(PreconditionViolated):
        restrict_isomorphism(bad_map, full_family(z2), full_family(z2))


def symmetric_group_3():
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteSemigroup([[index[tuple(p[q[x]] for x in range(3))]
                             for q in perms] for p in perms])


def between(source_family, target_family, mapping=None):
    """A map between the materializations of two families, identity by
    default."""
    source = source_family.as_semigroup()
    target = target_family.as_semigroup()
    return Morphism(source, target,
                    range(source.order) if mapping is None else mapping)


def only_one_hypothesis_fails(name):
    """(morphism, source family, target family) breaking one hypothesis of
    the transfer checks and keeping every other one."""
    z2, z4, s3 = zoo.cyclic_group(2), zoo.cyclic_group(4), symmetric_group_3()
    # Z2 with a zero adjoined: not cancellative, and P(Z2) is a copy of it.
    z2_zero = FiniteSemigroup([[0, 1, 2], [1, 0, 2], [2, 2, 2]])
    # The cosets of {0, 2} in Z4: a copy of Z2, closed but missing subsets.
    cosets = SubsetFamily(z4, [0b0101, 0b1010])
    power_z2 = build_power_semigroup(z2)
    return {
        "not-isomorphism": (Morphism(power_z2, power_z2, [0, 0, 0]),
                            full_family(z2), full_family(z2)),
        "source-not-complete": (between(cosets, singleton_family(z2)),
                                cosets, singleton_family(z2)),
        "target-not-complete": (between(singleton_family(z2), cosets),
                                singleton_family(z2), cosets),
        "source-not-cancellative": (
            between(singleton_family(z2_zero), full_family(z2)),
            singleton_family(z2_zero), full_family(z2)),
        "target-not-cancellative": (
            between(full_family(z2), singleton_family(z2_zero)),
            full_family(z2), singleton_family(z2_zero)),
        "none-commutative": (
            between(singleton_family(s3), singleton_family(s3)),
            singleton_family(s3), singleton_family(s3)),
        "source-not-commutative": (
            between(singleton_family(s3), singleton_family(s3)),
            singleton_family(s3), singleton_family(s3)),
        "wrong-semigroups": (Morphism(power_z2, power_z2, [0, 1, 2]),
                             singleton_family(z2), singleton_family(z2)),
    }[name]


NOT_ISO = "map is not a verified isomorphism"
SOURCE_INCOMPLETE = "source family is not downward complete"
TARGET_INCOMPLETE = "target family is not downward complete"
WRONG_SEMIGROUPS = "map does not act between the materialized families"


@pytest.mark.parametrize("case, message", [
    ("not-isomorphism", NOT_ISO),
    ("source-not-complete", SOURCE_INCOMPLETE),
    ("target-not-complete", TARGET_INCOMPLETE),
    ("source-not-cancellative", "source carrier is not cancellative"),
    ("target-not-cancellative", "target carrier is not cancellative"),
    ("none-commutative", "neither carrier is commutative"),
    ("wrong-semigroups", WRONG_SEMIGROUPS),
])
def test_restrict_rejects_each_failed_hypothesis(case, message):
    morphism, source_family, target_family = only_one_hypothesis_fails(case)
    with pytest.raises(PreconditionViolated) as info:
        restrict_isomorphism(morphism, source_family, target_family)
    assert str(info.value) == message


@pytest.mark.parametrize("case, message", [
    ("not-isomorphism", NOT_ISO),
    ("source-not-complete", SOURCE_INCOMPLETE),
    ("target-not-complete", TARGET_INCOMPLETE),
    ("source-not-commutative", "source carrier is not commutative"),
    ("wrong-semigroups", WRONG_SEMIGROUPS),
])
def test_commutativity_transfer_rejects_each_failed_hypothesis(case, message):
    morphism, source_family, target_family = only_one_hypothesis_fails(case)
    with pytest.raises(PreconditionViolated) as info:
        verify_commutativity_transfer(morphism, source_family, target_family)
    assert str(info.value) == message


def test_commutativity_transfer_on_lifts():
    z2 = zoo.cyclic_group(2)
    lifted = lift_isomorphism(Morphism(z2, z2, [0, 1]))
    assert verify_commutativity_transfer(lifted, full_family(z2),
                                         full_family(z2))
    z3 = zoo.cyclic_group(3)
    lifted = lift_isomorphism(Morphism(z3, z3, [0, 2, 1]))
    assert verify_commutativity_transfer(lifted, full_family(z3),
                                         full_family(z3))


def test_commutativity_transfer_rejects_non_isomorphism():
    z2 = zoo.cyclic_group(2)
    power = build_power_semigroup(z2)
    with pytest.raises(PreconditionViolated):
        verify_commutativity_transfer(Morphism(power, power, [0, 0, 0]),
                                      full_family(z2), full_family(z2))


def test_cancellative_preservation():
    z3 = zoo.cyclic_group(3)
    assert cancellative_preservation_check(Morphism(z3, z3, [0, 2, 1]))
    for sgr in (zoo.min_chain(3), zoo.left_zero(2)):
        for auto in all_isomorphisms(sgr, sgr):
            assert cancellative_preservation_check(auto)


def test_homomorphism_enumeration_against_direct_scan():
    z4, z2 = zoo.cyclic_group(4), zoo.cyclic_group(2)
    found = [m.mapping for m in homomorphisms(z4, z2, surjective_only=True)]
    direct = []
    for mapping in product(range(2), repeat=4):
        if set(mapping) != {0, 1}:
            continue
        if all(mapping[z4.rows[x][y]] == z2.rows[mapping[x]][mapping[y]]
               for x in range(4) for y in range(4)):
            direct.append(mapping)
    assert sorted(found) == sorted(direct)
    assert (0, 1, 0, 1) in found  # reduction mod 2


def test_morphism_inverse():
    z3 = zoo.cyclic_group(3)
    negation = Morphism(z3, z3, [0, 2, 1])
    assert negation.inverse() == negation  # an involution
    with pytest.raises(PreconditionViolated):
        Morphism(z3, z3, [0, 0, 0]).inverse()


# Run under `python -O`, where assert statements are stripped: a search
# that yields a wrong map, or a lift onto a wrong power semigroup, must
# still be caught by the re-verification.
WRONG_MAP_SCRIPT = """
from powersemi import TheoremViolation, morphisms, zoo
if __debug__:
    raise SystemExit("expected to run under python -O")
z3 = zoo.cyclic_group(3)
identity = morphisms.Morphism(z3, z3, [0, 1, 2])
build = morphisms.build_power_semigroups
morphisms._mapping_search = lambda source, target: iter([(1, 0, 2)])
morphisms.build_power_semigroups = lambda carriers: build(
    [carriers[0], zoo.null_semigroup(3)])
for check in (lambda: morphisms.find_isomorphism(z3, z3),
              lambda: list(morphisms.all_isomorphisms(z3, z3)),
              lambda: morphisms.lift_isomorphism(identity)):
    try:
        check()
    except TheoremViolation:
        continue
    raise SystemExit("a wrong map was returned unchecked")
print("ok")
"""


def test_wrong_search_result_raises_under_optimize():
    src = str(Path(powersemi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_MAP_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
