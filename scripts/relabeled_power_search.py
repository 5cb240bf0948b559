"""Search for an isomorphism P(S) -> P(πS) for every order-5 class S
under one seeded relabeling π, each search under a deadline.

Every map found is checked here, independently of the package's own
re-verification, with plain loops over the two tables. The script prints
one line per failure and a summary, and exits 1 if any search missed its
deadline, found nothing or returned a map that fails the check.

Run:  PYTHONPATH=src python -O scripts/relabeled_power_search.py [--seed 0]
"""

import argparse
import random
import signal
import sys
import time

from powersemi import (FiniteSemigroup, build_power_semigroups,
                       enumerate_semigroups, find_isomorphism)


class Deadline(Exception):
    pass


def expire(signum, frame):
    raise Deadline


def relabel(rows, perm):
    """The table of the copy whose element x is renamed perm[x]."""
    n = len(rows)
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    return [[perm[rows[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def maps_isomorphically(source_rows, target_rows, mapping):
    n = len(source_rows)
    return sorted(mapping) == list(range(n)) and all(
        mapping[source_rows[x][y]] == target_rows[mapping[x]][mapping[y]]
        for x in range(n) for y in range(n))


def search_failures(carriers, seed, deadline=2.0):
    """Relabel each (name, semigroup) of carriers by a permutation drawn
    from random.Random(seed), in turn, and search for an isomorphism
    between the two power semigroups under a SIGALRM deadline.

    Returns one line per failed search and the slowest search as
    (seconds, name)."""
    rng = random.Random(seed)
    failures, slowest = [], (0.0, None)
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for name, source in carriers:
            perm = list(range(source.order))
            rng.shuffle(perm)
            big_source, big_target = build_power_semigroups(
                [source, FiniteSemigroup(relabel(source.rows, perm))])
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                found = find_isomorphism(big_source, big_target)
            except Deadline:
                found = "missed"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            slowest = max(slowest, (time.perf_counter() - start, name))
            if found == "missed":
                reason = f"no answer in {deadline:g} s"
            elif found is None:
                reason = "no map found"
            elif not maps_isomorphically(big_source.rows, big_target.rows,
                                         found.mapping):
                reason = "the map found fails the check"
            else:
                continue
            failures.append(f"{name} relabeled by {perm}: {reason}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return failures, slowest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="seconds allowed to each search")
    args = parser.parse_args()
    catalog = enumerate_semigroups(5)
    failures, (seconds, name) = search_failures(
        [(f"(5, {k})", entry.semigroup) for k, entry in enumerate(catalog)],
        args.seed, args.deadline)
    for line in failures:
        print(line)
    print(f"{len(catalog)} searches, seed {args.seed}, {len(failures)} "
          f"failed, slowest {seconds * 1000:.1f} ms at {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
