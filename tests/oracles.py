"""Brute-force oracles the tests compare the library against.

The isomorphism oracles try every candidate map, so they are independent
of the pruned isomorphism search and feasible only at tiny orders.
`mask_product` multiplies two masks in plain Python, one product at a
time, independent of the package's `family_products`.
`downward_completeness_bruteforce` is the full-submask form of the
package's `downward_completeness`, which looks up one-element removals.
`naive_is_associative` checks every triple of a table one at a time,
independent of the validator's vectorised check. The cancellation oracles
multiply one member by every member with it, independent of the family's
product matrix. `semigroup_state` lists what a FiniteSemigroup
exposes, so two construction paths can be compared field by field.
`scalar_element_queries` answers the scalar queries by pairwise scans of
the rows, independent of the cached per-element profiles.
`tuple_fingerprint` keeps a fingerprint as the sorted tuple of profile
tuples, with `describe_tuple_mismatch` reading it, so the byte
fingerprints can be compared with the representation they replaced.
"""

from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from powersemi import (CancellationWitness, CompletenessCertificate,
                       Morphism, SubsetElement, fingerprint)


def mask_product(semigroup, xmask, ymask):
    """Mask of {x*y : x in X, y in Y} for masks X, Y over the semigroup."""
    rows = semigroup.rows
    out = 0
    xm = xmask
    while xm:
        xlow = xm & -xm
        row = rows[xlow.bit_length() - 1]
        xm ^= xlow
        ym = ymask
        while ym:
            ylow = ym & -ym
            out |= 1 << row[ylow.bit_length() - 1]
            ym ^= ylow
    return out


def downward_completeness_bruteforce(family):
    """The certificate of downward_completeness, by full scans: the first
    pair of members, in row-major order, whose product (by mask_product)
    is not a member; else the least carrier element no member covers;
    else the first member with a missing non-empty submask, with the
    first missing one in descending submask order."""
    semigroup, masks = family.semigroup, family.masks
    members = set(masks)
    for x in masks:
        for y in masks:
            product = mask_product(semigroup, x, y)
            if product not in members:
                return CompletenessCertificate(False, "closure",
                                               (x, y, product))
    for element in range(semigroup.order):
        if not any(m >> element & 1 for m in masks):
            return CompletenessCertificate(False, "coverage", (element,))
    for m in masks:
        sub = m
        while sub:
            if sub not in members:
                return CompletenessCertificate(False, "subsets", (m, sub))
            sub = (sub - 1) & m
    return CompletenessCertificate(True)


def naive_is_associative(rows, n):
    """True iff (a*b)*c == a*(b*c) for every triple, checked one by one."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return False
    return True


def semigroup_state(semigroup):
    """The table (dtype, bytes, writeability), order, commutativity flag,
    identity, hash, rows and fingerprint of a FiniteSemigroup."""
    table = semigroup.table
    return (table.dtype, table.shape, table.tobytes(), table.flags.writeable,
            semigroup.order, semigroup.commutative, semigroup.identity,
            hash(semigroup), semigroup.rows, fingerprint(semigroup))


def scalar_element_queries(rows):
    """Per element a, by plain scans: whether a*x != a*y and x*a != y*a
    for all x != y, whether a*a == a, and (index, period) of the powers
    a, a**2, ..., listed until the first repeat, a**index."""
    n = len(rows)
    pairs = [(x, y) for x in range(n) for y in range(x)]
    out = []
    for a in range(n):
        left = all(rows[a][x] != rows[a][y] for x, y in pairs)
        right = all(rows[x][a] != rows[y][a] for x, y in pairs)
        powers = [a]
        while (following := rows[powers[-1]][a]) not in powers:
            powers.append(following)
        index = powers.index(following) + 1
        out.append((left, right, rows[a][a] == a,
                    (index, len(powers) + 1 - index)))
    return out


def _bruteforce_isomorphisms(source, target):
    """Yield every bijection that is an isomorphism between two semigroups
    of the same order, as a tuple, testing all permutations at once."""
    perms = np.array(list(permutations(range(source.order))), dtype=np.int64)
    lhs = perms[:, source.table]
    rhs = target.table[perms[:, :, None], perms[:, None, :]]
    for hit in np.flatnonzero((lhs == rhs).all(axis=(1, 2))):
        yield tuple(int(v) for v in perms[hit])


def isomorphic_bruteforce(source, target):
    """Decide isomorphism by testing every bijection at once.

    Usable up to order ~8. Returns the first isomorphism as a tuple, or
    None.
    """
    if source.order != target.order:
        return None
    return next(_bruteforce_isomorphisms(source, target), None)


def all_automorphisms_bruteforce(semigroup):
    """Every automorphism by scanning all permutations."""
    return list(_bruteforce_isomorphisms(semigroup, semigroup))


def homomorphisms(source, target, surjective_only=False):
    """Exhaustively enumerate homomorphisms."""
    target_range = set(range(target.order))
    for mapping in product(range(target.order), repeat=source.order):
        if surjective_only and set(mapping) != target_range:
            continue
        morphism = Morphism(source, target, mapping)
        if morphism.is_homomorphism:
            yield morphism


def is_cancellative_in(mask, family):
    """Brute-force cancellativity of one member inside a product-closed family:
    both X -> mask*X and X -> X*mask must be injective on the family.
    """
    S = family.semigroup
    size = len(family.masks)
    return (len({mask_product(S, mask, x) for x in family.masks}) == size
            and len({mask_product(S, x, mask) for x in family.masks}) == size)


def find_witness_bruteforce(mask, family):
    """Scan the family for any pair the member maps to the same left product.

    Independent of the constructive route; returns None when the member
    is left cancellative in the family.
    """
    S = family.semigroup
    seen = {}
    for x in family.masks:
        p = mask_product(S, mask, x)
        if p in seen:
            return CancellationWitness(
                SubsetElement(S, mask),
                SubsetElement(S, seen[p]),
                SubsetElement(S, x),
                "BruteForce",
            )
        seen[p] = x
    return None


class TupleFingerprint(NamedTuple):
    """A fingerprint kept as the sorted tuple of per-element profiles."""

    has_identity: bool
    profiles: tuple

    @property
    def order(self):
        return len(self.profiles)

    @property
    def commutative(self):
        return all(profile[5] == self.order for profile in self.profiles)

    @property
    def idempotent_count(self):
        return sum(profile[0] for profile in self.profiles)


def tuple_fingerprint(semigroup):
    """The identity flag and the sorted profiles of the scalar loop."""
    return TupleFingerprint(semigroup.identity is not None,
                            tuple(sorted(semigroup.profiles)))


def describe_tuple_mismatch(fp_a, fp_b):
    """Why two tuple fingerprints differ, or None if they are equal, in
    the words and order of checks of describe_fingerprint_mismatch."""
    if fp_a == fp_b:
        return None
    if fp_a.order != fp_b.order:
        return f"order {fp_a.order} != {fp_b.order}"
    if fp_a.commutative != fp_b.commutative:
        return "only one side is commutative"
    if fp_a.has_identity != fp_b.has_identity:
        return "only one side has an identity"
    if fp_a.idempotent_count != fp_b.idempotent_count:
        return (f"idempotent counts {fp_a.idempotent_count} != "
                f"{fp_b.idempotent_count}")
    return "per-element invariant multisets differ"
