"""Brute-force oracles the tests compare the library against.

Each one tries every candidate map, so it is independent of the pruned
isomorphism search and feasible only at tiny orders.
"""

from itertools import permutations, product

import numpy as np

from powersemi import Morphism


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
