"""Word sets over the free semigroup of non-empty words.

Words are non-empty tuples of letter indices and multiply by
concatenation. This is the standard non-commutative cancellative carrier,
and it behaves very differently from the commutative ones: sets of
single-letter words are cancellative in the power semigroup despite not
being singletons, because words factor uniquely into letters.
"""

from __future__ import annotations

import random

from .errors import PreconditionViolated
from .semigroups import _check_at_least, _integer


def _letter(a, message):
    x = _integer(a)
    if x is None or x < 0:
        raise PreconditionViolated(message)
    return x


def _check_word_set(words, label):
    out = frozenset(
        tuple(_letter(a, "letters must be non-negative integers") for a in w)
        for w in words)
    if not out:
        raise PreconditionViolated(f"{label} must be a non-empty set of words")
    if () in out:
        raise PreconditionViolated("words must be non-empty")
    return out


def _check_letters(letters):
    message = "letters must be a non-empty set of non-negative integers"
    out = frozenset(_letter(a, message) for a in letters)
    if not out:
        raise PreconditionViolated(message)
    return out


def word_product(xs, ys):
    """All concatenations x + y with x in xs and y in ys, deduplicated."""
    xs = _check_word_set(xs, "left factor")
    ys = _check_word_set(ys, "right factor")
    return frozenset(x + y for x in xs for y in ys)


def letters_cancellation_consistent(letters, ys1, ys2):
    """Check that a set of single-letter words separates word sets.

    Returns (X * ys1 == X * ys2) == (ys1 == ys2) and the same with X
    multiplied on the right, where X is the set of one-letter words over
    the given letters. The result should always be True; a False return
    would be a finding, not a bug in the caller.
    """
    x_words = {(a,) for a in _check_letters(letters)}
    sets_equal = frozenset(map(tuple, ys1)) == frozenset(map(tuple, ys2))
    left_equal = word_product(x_words, ys1) == word_product(x_words, ys2)
    right_equal = word_product(ys1, x_words) == word_product(ys2, x_words)
    return left_equal == sets_equal and right_equal == sets_equal


def leading_letter_disjoint(letters, ys1, ys2):
    """Check that distinct leading letters yield disjoint product sets.

    For every pair a != b of the given letters, {a}*ys1 and {b}*ys2 must
    not intersect; unique factorization of words guarantees it, and this
    computes the intersections explicitly rather than appealing to that.
    Each {b}*ys2 is built once, indexed by word, so the check is linear in
    the number of letters.
    """
    letters = _check_letters(letters)
    ys1 = _check_word_set(ys1, "first word set")
    ys2 = _check_word_set(ys2, "second word set")
    leading = {}  # word -> every letter b with word in {b}*ys2
    for b in letters:
        for w in ys2:
            leading.setdefault((b,) + w, set()).add(b)
    return all(leading.get((a,) + w, set()) <= {a}
               for a in letters for w in ys1)


def random_word(rng, alphabet, max_len):
    return tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, max_len)))


def cancellativity_campaign(alphabet=4, trials=10000, seed=0,
                            max_word_len=6, max_set_size=8):
    """Randomized search for a cancellation failure; none is expected.

    Each trial draws a letter set X and word sets Y1, Y2 (Y2 is forced
    equal to Y1 in a fraction of trials so both branches of the
    consistency check are exercised), then asserts both the separation
    property and the leading-letter disjointness on that trial's data.
    """
    _check_at_least(2, alphabet=alphabet)
    _check_at_least(1, max_word_len=max_word_len, max_set_size=max_set_size)
    _check_at_least(0, trials=trials)
    rng = random.Random(seed)
    violations = []
    disjointness_failures = []
    equal_set_trials = 0
    for trial in range(trials):
        size = rng.randint(2, alphabet)
        letters = frozenset(rng.sample(range(size), rng.randint(1, size)))
        ys1 = frozenset(random_word(rng, size, max_word_len)
                        for _ in range(rng.randint(1, max_set_size)))
        if rng.random() < 0.25:
            ys2 = ys1
        else:
            ys2 = frozenset(random_word(rng, size, max_word_len)
                            for _ in range(rng.randint(1, max_set_size)))
        if ys1 == ys2:
            equal_set_trials += 1
        record = {
            "trial": trial,
            "letters": sorted(letters),
            "ys1": sorted(map(list, ys1)),
            "ys2": sorted(map(list, ys2)),
        }
        if not letters_cancellation_consistent(letters, ys1, ys2):
            violations.append(record)
        if not leading_letter_disjoint(letters, ys1, ys2):
            disjointness_failures.append(record)
    return {
        "alphabet": alphabet,
        "trials": trials,
        "seed": seed,
        "max_word_len": max_word_len,
        "max_set_size": max_set_size,
        "equal_set_trials": equal_set_trials,
        "violations": violations,
        "disjointness_failures": disjointness_failures,
    }
