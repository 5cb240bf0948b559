"""Enumerate all semigroups of a small order up to isomorphism, and run
pairwise experiments over the resulting catalog."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .cancellation import (cancellative_elements_bruteforce,
                           singleton_cancellative_elements)
from .errors import OrderUnsupported, PreconditionViolated, TheoremViolation
from .morphisms import find_isomorphism
from .power import (build_power_semigroups, congruence_family,
                    downward_complete_closure, full_family,
                    power_fingerprints)
from .semigroups import (FiniteSemigroup, IsoFingerprint, _check_at_least,
                         _integer, _semigroups_from_stack, _validate,
                         all_congruences, fingerprints)

ENUM_MAX = 5
# canonical_tables refuses larger orders before it builds the n! relabelings.
GENERATE_MAX = 7


@dataclass
class CatalogEntry:
    """One representative semigroup with cached search invariants.

    The fingerprint of its power semigroup is cached, computed on first
    use or filled in by global_iso_probe; the power semigroup itself is
    not kept (build_power_semigroup(entry.semigroup) builds it).
    """

    semigroup: FiniteSemigroup
    canonical_id: tuple
    fingerprint: IsoFingerprint
    _power_fingerprint: IsoFingerprint | None = field(
        default=None, init=False, repr=False, compare=False)

    def power_fingerprint(self):
        if self._power_fingerprint is None:
            self._power_fingerprint = power_fingerprints([self.semigroup])[0]
        return self._power_fingerprint


def _fill(n, perms):
    """Depth-first fill of Cayley-table cells, row-major, pruning any
    partial table as soon as a fully determined triple fails associativity.

    Associativity is self-dual: · is associative iff x∘y = y·x is. So
    half checks the new cell (i, j) as the inner product of (i·j)·c and
    as the outer product of (a·b)·j with a·b = i, and half run on the
    transposed table, where cell (j, i) holds i·j, checks its other two
    roles: (a·i)·j, and i·(b·c) with b·c = j. occ[v] lists the decided
    cells that hold v, ascending, so the second role visits only the
    cells a·b = i.

    perms holds (perm, src) pairs: a relabeling of the elements and, for
    each cell, the flat index of the cell it is relabeled from. A partial
    table is pruned as soon as one relabeling makes its decided prefix
    lexicographically smaller. Yields tables in lexicographic order.
    """
    total = n * n
    flat = [-1] * total
    occ = [[] for _ in range(n)]
    # A relabeling (perm, src, p) has its image equal to the table on the
    # cells before p. It waits in the bucket of the cell, p or src[p],
    # that is decided last, since both are needed to compare cell p.
    buckets = [[] for _ in range(total)]
    for perm, src in perms:
        buckets[src[0]].append((perm, src, 0))

    def half(i, j, r, s):
        # x·y is flat[r*x + s*y], -1 while undecided.
        v = flat[r * i + s * j]
        for c in range(n):
            # (i·j)·c against i·(j·c)
            jc = flat[r * j + s * c]
            if jc != -1:
                lhs, rhs = flat[r * v + s * c], flat[r * i + s * jc]
                if lhs != -1 and rhs != -1 and lhs != rhs:
                    return False
        for k in occ[i]:
            # (a·b)·j = i·j against a·(b·j), where k = r*a + s*b
            a, b = k // r % n, k // s % n
            bj = flat[r * b + s * j]
            if bj != -1:
                rhs = flat[r * a + s * bj]
                if rhs != -1 and rhs != v:
                    return False
        return True

    def lex_leader(k, pushed):
        # Every completion of a prefix with a smaller relabeling keeps that
        # smaller relabeling, so such a prefix can be dropped. A relabeling
        # whose image is larger, or equal on every cell, is dropped for the
        # subtree; one that ties waits for its next comparison. Its new
        # bucket is recorded in pushed, to be popped on backtracking.
        for perm, src, p in buckets[k]:
            while True:
                w = perm[flat[src[p]]]
                if w != flat[p]:
                    if w < flat[p]:
                        return False
                    break
                p += 1
                if p == total:
                    break
                wait = max(p, src[p])
                if wait > k:
                    buckets[wait].append((perm, src, p))
                    pushed.append(wait)
                    break
        return True

    def fill(k):
        if k == total:
            yield [flat[row:row + n] for row in range(0, total, n)]
            return
        i, j = divmod(k, n)
        for v in range(n):
            flat[k] = v
            occ[v].append(k)
            pushed = []
            if (half(i, j, n, 1) and half(j, i, 1, n)
                    and lex_leader(k, pushed)):
                yield from fill(k + 1)
            for wait in pushed:
                buckets[wait].pop()
            occ[v].pop()
        flat[k] = -1

    yield from fill(0)


def _relabelings(n):
    """All n! relabelings of n elements, the identity first, and their
    inverses, as two uint8 arrays of shape (n!, n)."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    return perms, np.argsort(perms, axis=1).astype(np.uint8)


def associative_tables(n):
    """Every associative table of order n as a list of rows, in
    lexicographic order: each relabeling perm[t[inv x][inv y]] of each
    validated catalog table t, isomorphic to t and so not re-validated."""
    _check_order(n)
    perms, invs = _relabelings(n)
    tables = np.stack([entry.semigroup.table for entry in _catalog(n)])
    relabeled = perms[np.arange(len(perms))[:, None, None],
                      tables[:, invs[:, :, None], invs[:, None, :]]]
    # Rows as n*n-byte strings sort in the lexicographic order of tables.
    rows = relabeled.reshape(-1, n * n).view(f"V{n * n}")
    return np.unique(rows).view(np.uint8).reshape(-1, n, n).tolist()


def canonical_tables(n):
    """One table per isomorphism class of order n: the lexicographically
    least table of each relabeling orbit, in lexicographic order."""
    if _integer(n) is None or not 1 <= n <= GENERATE_MAX:
        raise OrderUnsupported(f"order {n!r} outside the generator's range "
                               f"[1, {GENERATE_MAX}]")
    perms, invs = _relabelings(n)
    src = (n * invs[:, :, None] + invs[:, None, :]).reshape(len(perms), -1)
    return _fill(n, list(zip(perms.tolist(), src.tolist()))[1:])


def _check_order(n):
    if _integer(n) is None or not 1 <= n <= ENUM_MAX:
        raise OrderUnsupported(f"order {n!r} outside the supported range "
                               f"[1, {ENUM_MAX}]")


def enumerate_semigroups(n):
    """All semigroups of order n, one per isomorphism class.

    A representative is the lexicographically least table of its
    relabeling orbit, found by pruning the table search (lex-leader
    symmetry breaking). Entries are sorted by their table encoding, and
    pairwise non-isomorphism of the output is re-verified during
    construction. Each order is built once per process.
    """
    _check_order(n)
    return list(_catalog(n))


@lru_cache(maxsize=None)
def _catalog(n):
    semigroups = _semigroups_from_stack(
        *_validate(np.array(list(canonical_tables(n)))))
    fps = fingerprints(semigroups)
    for i, j in _same_fingerprint_pairs(fps):
        if find_isomorphism(semigroups[i], semigroups[j]) is not None:
            raise TheoremViolation(f"catalog entries {(n, i)} and {(n, j)} "
                                   "are isomorphic; enumeration is broken")
    return tuple(CatalogEntry(sgr, (n, idx), fp)
                 for idx, (sgr, fp) in enumerate(zip(semigroups, fps)))


def _same_fingerprint_pairs(fps):
    """Every pair (i, j), i < j, of positions whose fingerprints fps[i]
    and fps[j] agree, in ascending order."""
    buckets = {}
    for idx, fp in enumerate(fps):
        buckets.setdefault(fp, []).append(idx)
    return sorted(pair for bucket in buckets.values()
                  for pair in combinations(bucket, 2))


def global_iso_probe(n, entries=None, timer=time.perf_counter):
    """Compare the power semigroups of every pair of distinct catalog classes.

    The catalog entries are pairwise non-isomorphic by construction, so a
    pair with isomorphic power semigroups would be a counterexample worth
    preserving verbatim: the report carries the full map, re-verified
    exhaustively by find_isomorphism, and the CLI turns any finding into
    exit code 1.

    The power fingerprints not yet cached on their entries come from
    power_fingerprints, which keeps no power table, and are cached there.
    Power tables are built, by build_power_semigroups, only for the
    entries that share a fingerprint with another (10 of 1,915 at order
    5), and only those pairs are searched. Given entries must all have
    order n.
    """
    start = timer()
    if entries is None:
        entries = enumerate_semigroups(n)
    elif _integer(n) is None or any(e.semigroup.order != n for e in entries):
        raise PreconditionViolated(
            f"n must be the order of every entry, got {n!r}")
    missing = [entry for entry in entries if entry._power_fingerprint is None]
    for entry, fp in zip(missing, power_fingerprints(
            entry.semigroup for entry in missing)):
        entry._power_fingerprint = fp
    pairs = _same_fingerprint_pairs([e._power_fingerprint for e in entries])
    survivors = sorted({i for pair in pairs for i in pair})
    powers = dict(zip(survivors, build_power_semigroups(
        entries[i].semigroup for i in survivors)))
    total_pairs = len(entries) * (len(entries) - 1) // 2
    searched = [(i, j, find_isomorphism(powers[i], powers[j]))
                for i, j in pairs]
    counterexamples = [{
        "left": list(entries[i].canonical_id),
        "right": list(entries[j].canonical_id),
        "left_table": entries[i].semigroup.rows,
        "right_table": entries[j].semigroup.rows,
        "power_map": list(found.mapping),
    } for i, j, found in searched if found is not None]
    elapsed_ms = int(round((timer() - start) * 1000))
    return {
        "order": n,
        "classes": len(entries),
        "pairs_checked": total_pairs,
        "counterexamples": counterexamples,
        "pruned_by_fingerprint": total_pairs - len(pairs),
        "elapsed_ms": elapsed_ms,
    }


def singleton_characterization_check(n, seed=0, closures_per_semigroup=3):
    """Exhaustive agreement check of the two cancellativity classifiers.

    For every commutative catalogued semigroup of order <= n, the
    brute-force classification of its full power semigroup, of every
    congruence family, and of a seeded sample of downward-complete
    closures must coincide with the singleton rule. Violations are
    reported, never expected.
    """
    _check_at_least(0, closures_per_semigroup=closures_per_semigroup)
    _check_order(n)
    rng = random.Random(seed)
    violations = []
    commutative_count = 0
    families_checked = 0
    for order in range(1, n + 1):
        for entry in enumerate_semigroups(order):
            sgr = entry.semigroup
            if not sgr.commutative:
                continue
            commutative_count += 1
            families = [full_family(sgr)]
            families.extend(congruence_family(c) for c in all_congruences(sgr))
            for _ in range(closures_per_semigroup):
                count = rng.randint(0, 2)
                gens = [rng.randrange(1, 1 << order) for _ in range(count)]
                families.append(downward_complete_closure(sgr, gens))
            for family in families:
                families_checked += 1
                brute = {m.mask for m in cancellative_elements_bruteforce(family)}
                rule = {m.mask for m in singleton_cancellative_elements(family)}
                if brute != rule:
                    violations.append({
                        "entry": list(entry.canonical_id),
                        "family": list(family.masks),
                        "bruteforce": sorted(brute),
                        "singleton_rule": sorted(rule),
                    })
    return {
        "order": n,
        "seed": seed,
        "commutative_semigroups": commutative_count,
        "families_checked": families_checked,
        "violations": violations,
    }
