"""Homomorphisms between finite semigroups, isomorphism search, and the
transfer of isomorphisms to and from power semigroups.

The search prunes by the fingerprints and per-element profiles that
semigroups.py computes and caches."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated, TheoremViolation
from .power import build_power_semigroups
from .semigroups import _integer, fingerprint


class Morphism:
    """An element map between two finite semigroups with verified flags.

    The homomorphism property is checked exhaustively at construction;
    nothing is assumed. mapping[x] is the image of source element x.
    """

    __slots__ = ("source", "target", "mapping", "is_homomorphism",
                 "is_injective", "is_surjective")

    def __init__(self, source, target, mapping):
        mapping = tuple(map(_integer, mapping))
        if None in mapping:
            raise PreconditionViolated("map images must be integers")
        if len(mapping) != source.order:
            raise PreconditionViolated(
                f"map has {len(mapping)} entries for a source of order "
                f"{source.order}")
        if any(not 0 <= v < target.order for v in mapping):
            raise PreconditionViolated("map image outside the target carrier")
        self.source = source
        self.target = target
        self.mapping = mapping
        m = np.array(mapping, dtype=np.int64)
        self.is_homomorphism = bool(np.array_equal(
            m[source.table], target.table[np.ix_(m, m)]))
        self.is_injective = len(set(mapping)) == source.order
        self.is_surjective = set(mapping) == set(range(target.order))

    @property
    def is_isomorphism(self):
        return self.is_homomorphism and self.is_injective and self.is_surjective

    def inverse(self):
        if not self.is_isomorphism:
            raise PreconditionViolated("only isomorphisms can be inverted")
        inv = [0] * self.target.order
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return Morphism(self.target, self.source, inv)

    def __eq__(self, other):
        return (isinstance(other, Morphism)
                and self.source == other.source
                and self.target == other.target
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        return f"Morphism({list(self.mapping)})"


def _twin_classes(semigroup):
    """Per element, a key shared exactly by its twins: elements that are
    no product and have equal rows and equal columns. Swapping two twins
    is an automorphism, and a product is its own class."""
    table = semigroup.table
    products = set(table.ravel().tolist())
    return [y if y in products else (table[y].tobytes(), table[:, y].tobytes())
            for y in range(semigroup.order)]


def _mapping_search(source, target):
    """Yield every isomorphism source -> target as a raw mapping tuple.

    Backtracking over invariant classes: source elements are assigned in
    order of ascending candidate-class size (ties broken by invariant then
    index), candidates scanned in ascending index order, and every
    tentative assignment is closed under products before recursing, so a
    single choice usually forces most of the map.

    Once a candidate y for x has yielded no map, the unused twins of y
    are skipped at that node: swapping them fixes every earlier image, so
    they yield none either. Every map is still yielded, in the same order.
    """
    if fingerprint(source) != fingerprint(target):
        return
    n = source.order
    s_prof = source.profiles
    t_prof = target.profiles
    candidates = {x: [y for y in range(n) if t_prof[y] == s_prof[x]]
                  for x in range(n)}
    order = sorted(range(n),
                   key=lambda x: (len(candidates[x]), s_prof[x], x))
    s_rows = source.rows
    t_rows = target.rows
    mapping = [-1] * n
    used = [False] * n
    assigned = []

    def assign(x, y, trail):
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            cur = mapping[a]
            if cur == b:
                continue
            if cur != -1 or used[b] or s_prof[a] != t_prof[b]:
                return False
            mapping[a] = b
            used[b] = True
            trail.append(a)
            assigned.append(a)
            for c in assigned:
                d = mapping[c]
                p, q = s_rows[a][c], t_rows[b][d]
                if mapping[p] == -1:
                    stack.append((p, q))
                elif mapping[p] != q:
                    return False
                p, q = s_rows[c][a], t_rows[d][b]
                if mapping[p] == -1:
                    stack.append((p, q))
                elif mapping[p] != q:
                    return False
        return True

    def undo(trail):
        for a in reversed(trail):
            used[mapping[a]] = False
            mapping[a] = -1
            assigned.pop()

    twins = None
    found = 0

    def backtrack(pos):
        nonlocal twins, found
        while pos < n and mapping[order[pos]] != -1:
            pos += 1
        if pos == n:
            found += 1
            yield tuple(mapping)
            return
        x = order[pos]
        failed = set()
        for y in candidates[x]:
            if used[y] or (failed and twins[y] in failed):
                continue
            before = found
            trail = []
            if assign(x, y, trail):
                yield from backtrack(pos + 1)
            undo(trail)
            if found == before:
                # Computed at the first failure: most searches have none.
                twins = twins or _twin_classes(target)
                failed.add(twins[y])

    yield from backtrack(0)


def _verified_isomorphism(source, target, mapping):
    """The Morphism of mapping, or TheoremViolation if not an isomorphism."""
    morphism = Morphism(source, target, mapping)
    if not morphism.is_isomorphism:
        raise TheoremViolation(f"map {list(mapping)} fails re-verification")
    return morphism


def find_isomorphism(source, target):
    """A verified isomorphism if one exists, else a definitive None.

    The negative fast path is a fingerprint mismatch; the positive path
    re-verifies the found map exhaustively before returning it.
    """
    for mapping in _mapping_search(source, target):
        return _verified_isomorphism(source, target, mapping)
    return None


def all_isomorphisms(source, target):
    """Every isomorphism source -> target, each re-verified exhaustively."""
    for mapping in _mapping_search(source, target):
        yield _verified_isomorphism(source, target, mapping)


def lift_isomorphism(morphism):
    """Lift a carrier isomorphism to the two full power semigroups.

    The lifted map sends the subset with mask m to its elementwise image,
    preserving cardinality. The result is re-verified; a failure would be
    a mathematical surprise, not a usage error.
    """
    if not morphism.is_isomorphism:
        raise PreconditionViolated("map is not a verified isomorphism")
    power_source, power_target = build_power_semigroups(
        [morphism.source, morphism.target])
    # images[mask] is the image of mask; element x doubles the list.
    images = [0]
    for y in morphism.mapping:
        images += [image | 1 << y for image in images]
    return _verified_isomorphism(power_source, power_target,
                                 [image - 1 for image in images[1:]])


def _check_family_isomorphism(morphism, source_family, target_family):
    """The hypotheses shared by the two transfer checks: a verified
    isomorphism between the materializations of two downward-complete
    families."""
    if not morphism.is_isomorphism:
        raise PreconditionViolated("map is not a verified isomorphism")
    if not source_family.is_downward_complete:
        raise PreconditionViolated("source family is not downward complete")
    if not target_family.is_downward_complete:
        raise PreconditionViolated("target family is not downward complete")
    if morphism.source != source_family.as_semigroup() \
            or morphism.target != target_family.as_semigroup():
        raise PreconditionViolated(
            "map does not act between the materialized families")


def check_restriction_hypotheses(source, target):
    """Raise PreconditionViolated unless both carriers are cancellative and
    at least one is commutative: the hypotheses of restrict_isomorphism
    that need no power semigroup, so a caller can check them first."""
    if not source.is_cancellative_semigroup():
        raise PreconditionViolated("source carrier is not cancellative")
    if not target.is_cancellative_semigroup():
        raise PreconditionViolated("target carrier is not cancellative")
    if not (source.commutative or target.commutative):
        raise PreconditionViolated("neither carrier is commutative")


def restrict_isomorphism(morphism, source_family, target_family):
    """Restrict a family-level isomorphism to the two carriers.

    Hypotheses: a verified isomorphism between the materializations of
    two downward-complete families, both carriers cancellative, and at
    least one of them commutative. Under them every singleton must map to
    a singleton; the implementation verifies this element by element
    instead of trusting it, raising TheoremViolation on any failure. The
    restriction x -> y with morphism({x}) = {y} is returned as a verified
    isomorphism.
    """
    _check_family_isomorphism(morphism, source_family, target_family)
    H = source_family.semigroup
    K = target_family.semigroup
    check_restriction_hypotheses(H, K)

    restricted = []
    for x in range(H.order):
        image_mask = target_family.masks[
            morphism.mapping[source_family.index(1 << x)]]
        if image_mask.bit_count() != 1:
            raise TheoremViolation(
                f"singleton {{{x}}} maps to the non-singleton mask {image_mask}")
        restricted.append(image_mask.bit_length() - 1)
    return _verified_isomorphism(H, K, restricted)


def verify_commutativity_transfer(morphism, source_family, target_family):
    """Directly check that the target carrier inherits commutativity.

    Requires a commutative source carrier and a verified isomorphism
    between two downward-complete families. The return value is the
    target carrier's actual commutativity flag; False would be a theorem
    violation for the caller to report.
    """
    _check_family_isomorphism(morphism, source_family, target_family)
    if not source_family.semigroup.commutative:
        raise PreconditionViolated("source carrier is not commutative")
    return target_family.semigroup.commutative


def cancellative_preservation_check(morphism):
    """True iff every element and its image share the sizes of their rows
    and of their columns, hence left/right cancellativity.

    Always true for an isomorphism; the check compares the two profile
    columns instead of assuming the statement.
    """
    if not morphism.is_isomorphism:
        raise PreconditionViolated("map is not a verified isomorphism")
    source, target = morphism.source.profiles, morphism.target.profiles
    return all(source[a][3:5] == target[b][3:5]
               for a, b in enumerate(morphism.mapping))
