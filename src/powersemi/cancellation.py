"""Classify the cancellative members of a subset family, two ways.

The brute-force route checks injectivity of multiplication maps directly
and is the oracle of record. The singleton rule predicts the answer for a
downward-complete family over a commutative carrier without touching any
non-singleton product: exactly the singletons {u} with u cancellative in
the carrier. For every non-singleton member an explicit witness of
non-cancellativity can be constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import IndexOutOfRange, PreconditionViolated, TheoremViolation
from .power import SubsetElement, _as_mask, _bits, _fits_power_table

CASE1 = "Case1"
CASE2 = "Case2"


@dataclass(frozen=True)
class CancellationWitness:
    """Distinct sets lhs != rhs that a multiplier cannot tell apart.

    multiplier * lhs == multiplier * rhs certifies that the multiplier is
    not (left) cancellative in any family containing all three sets. The
    finite case stores SubsetElement values; the additive case stores
    frozensets of non-negative integers.
    """

    multiplier: Any
    lhs: Any
    rhs: Any
    case_tag: str

    def report(self):
        def encode(value):
            if isinstance(value, SubsetElement):
                return value.mask
            return sorted(value)

        return {
            "case": self.case_tag,
            "multiplier": encode(self.multiplier),
            "lhs": encode(self.lhs),
            "rhs": encode(self.rhs),
        }


def cancellative_elements_bruteforce(family):
    """All members that are cancellative inside the family; the oracle route.

    Member a is cancellative iff neither row a (X -> a*X) nor column a
    (X -> X*a) of the family's product matrix repeats a value, checked
    for all members at once. Over a carrier of order at most
    POWER_CAP_MAX every product is below 64, so a line of k products
    repeats none iff the OR of 1 << product along it has k bits set;
    above it, the matrix is sorted along each axis and neighbours
    compared.
    """
    if not family.is_subsemigroup:
        raise PreconditionViolated("family is not closed under products")
    products = family.products
    if _fits_power_table(family.semigroup):
        words = np.uint64(1) << products
        k = len(family.masks)
        cancellative = (
            (np.bitwise_count(np.bitwise_or.reduce(words, axis=1)) == k)
            & (np.bitwise_count(np.bitwise_or.reduce(words, axis=0)) == k))
    else:
        rows = np.sort(products, axis=1)
        columns = np.sort(products, axis=0)
        cancellative = ((rows[:, 1:] != rows[:, :-1]).all(axis=1)
                        & (columns[1:] != columns[:-1]).all(axis=0))
    return {SubsetElement._proved(family.semigroup, m)
            for m, ok in zip(family.masks, cancellative.tolist()) if ok}


def _require_rule_hypotheses(family):
    """Raise PreconditionViolated unless the singleton rule's hypotheses
    hold: a commutative carrier, then a downward-complete family."""
    if not family.semigroup.commutative:
        raise PreconditionViolated("NotCommutative: carrier must be commutative")
    if not family.is_downward_complete:
        raise PreconditionViolated(
            "NotDownwardComplete: family must be downward complete")


def singleton_cancellative_elements(family):
    """Predicted cancellative members: singletons of carrier-cancellative elements.

    Valid only for a downward-complete family over a commutative carrier;
    anything else is rejected. No product of non-singleton members is
    inspected, which is the entire point of the rule.
    """
    _require_rule_hypotheses(family)
    S = family.semigroup
    return {SubsetElement._proved(S, 1 << u) for u in range(S.order)
            if S.is_cancellative(u)}


def witness_noncancellative(subset, family):
    """Deterministic non-cancellativity witness for a member with >= 2 elements.

    Requires a commutative carrier and a downward-complete family
    containing the subset, which guarantees both returned sets are
    members. Writing A for the subset, the construction scans ordered
    pairs (a, b) of distinct elements of A in ascending order:

    * if some pair has a*a == a*b, the witness is (A, A, A minus {a});
    * otherwise a, b are the two smallest elements of A and the witness
      is (A, A*A, A*A minus {a*b}); b*b then always survives in the rhs.

    The subset is validated once, on entry; the sides are built from
    its mask and the product matrix unchecked. Before returning, the
    witness is re-checked by verify_witness (both sides distinct members,
    multiplier * lhs == multiplier * rhs); a failure raises
    TheoremViolation. The carrier is commutative, so the product matrix
    is symmetric and the left products settle both sides.
    """
    _require_rule_hypotheses(family)
    S = family.semigroup
    amask = _as_mask(S, subset)
    if amask.bit_count() < 2:
        raise PreconditionViolated("subset must have at least two elements")
    i = family._positions.get(amask)
    if i is None:
        raise PreconditionViolated("subset is not a member of the family")

    rows = S.rows
    elems = list(_bits(amask))
    hit = None
    for a in elems:
        for b in elems:
            if a != b and rows[a][a] == rows[a][b]:
                hit = (a, b)
                break
        if hit:
            break

    if hit is not None:
        a, _ = hit
        lhs_mask = amask
        rhs_mask = amask & ~(1 << a)
        tag = CASE1
    else:
        a, b = elems[0], elems[1]
        square = int(family.products[i, i])
        lhs_mask = square
        rhs_mask = square & ~(1 << rows[a][b])
        tag = CASE2
        # b*b != a*b here, otherwise the pair (b, a) would have hit above.
        if not rhs_mask >> rows[b][b] & 1:
            raise TheoremViolation(
                f"Case2 witness for mask {amask} lost b*b from its rhs")

    witness = CancellationWitness(
        SubsetElement._proved(S, amask),
        SubsetElement._proved(S, lhs_mask),
        SubsetElement._proved(S, rhs_mask),
        tag,
    )
    if not verify_witness(witness, family):
        raise TheoremViolation(
            f"{tag} witness for mask {amask} fails verify_witness")
    return witness


def verify_witness(witness, family):
    """Re-check a finite-carrier witness against a family's product matrix.

    True iff the multiplier and both sides are members of the family,
    the sides differ, and multiplier * lhs == multiplier * rhs there;
    False otherwise. A witness over another ambient raises
    AmbientMismatch.
    """
    try:
        i, lhs, rhs = [family.index(s) for s in
                       (witness.multiplier, witness.lhs, witness.rhs)]
    except IndexOutOfRange:
        return False
    products = family.products
    return lhs != rhs and bool(products[i, lhs] == products[i, rhs])
