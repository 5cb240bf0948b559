"""Submonoids of (N, +) with finite complement, and sumset arithmetic
inside them.

These are the additive carriers: infinite, cancellative, commutative.
Finite member sets play the role the bit-mask subsets play over finite
carriers, so the non-cancellativity witness construction carries over
verbatim, always through its second case (a + a = a + b forces a = b, so
the first case can never fire here).
"""

from __future__ import annotations

import random
from math import gcd

from .cancellation import CASE2, CancellationWitness
from .errors import (NonMemberInput, OrderCapExceeded, PreconditionViolated,
                     TheoremViolation)
from .semigroups import _check_at_least, _integer

# The membership table holds min(gens) * max(gens) + min(gens) + 1 entries;
# generators that need more are rejected rather than allocated.
HORIZON_MAX = 10 ** 6
# A + (A + A) holds up to k²(k + 1)/2 sums for a k-member set A, so larger
# sets are rejected before any sumset is built.
WITNESS_MAX = 64


def _member_integer(v):
    x = _integer(v)
    if x is None:
        raise NonMemberInput(f"{v!r} is not a member of the monoid")
    return x


class NumericalMonoid:
    """The additive monoid generated by positive integers with gcd 1.

    Membership is solved by dynamic programming up to a horizon of
    min(gens) * max(gens) + min(gens), comfortably past the largest gap;
    a closing run of min(gens) consecutive members is verified before the
    largest gap is declared final. gaps lists every non-member and
    frobenius is the largest one (-1 when there are no gaps at all).
    """

    __slots__ = ("generators", "gaps", "frobenius", "_member", "_horizon")

    def __init__(self, generators):
        gens = {_integer(g) for g in generators}
        if not gens or None in gens or min(gens) < 1:
            raise PreconditionViolated("generators must be positive integers")
        gens = sorted(gens)
        g = gcd(*gens)
        if g != 1:
            raise PreconditionViolated(
                f"generators {gens} have gcd {g}; the complement in N "
                "would be infinite")
        self.generators = tuple(gens)
        smallest, largest = gens[0], gens[-1]
        horizon = smallest * largest + smallest + 1
        if horizon > HORIZON_MAX:
            raise OrderCapExceeded(
                f"generators {gens} need a membership horizon of {horizon}, "
                f"above the supported maximum of {HORIZON_MAX}")
        member = [False] * horizon
        member[0] = True
        for x in range(1, horizon):
            member[x] = any(x >= g and member[x - g] for g in gens)
        if not all(member[horizon - smallest:]):
            raise TheoremViolation(
                "membership table did not close with a full run of "
                f"{smallest} consecutive members; horizon too small")
        self.gaps = tuple(x for x in range(horizon) if not member[x])
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self._member = member
        self._horizon = horizon

    def __contains__(self, x):
        """False for anything but a member, non-integers and bools included."""
        x = _integer(x)
        if x is None or x < 0:
            return False
        if x >= self._horizon:
            return True
        return self._member[x]

    def membership(self, x):
        """True iff the non-negative integer x belongs to the monoid."""
        value = _integer(x)
        if value is None or value < 0:
            raise PreconditionViolated(
                "membership is defined on non-negative integers")
        return value in self

    def _validate_members(self, xs, label):
        out = frozenset(map(_member_integer, xs))
        if not out:
            raise NonMemberInput(f"{label} must be a non-empty set")
        for v in out:
            if v < 0 or v not in self:
                raise NonMemberInput(f"{v} is not a member of the monoid")
        return out

    def sumset(self, xs, ys):
        """The sumset {x + y : x in xs, y in ys}; members stay members."""
        xs = self._validate_members(xs, "first summand set")
        ys = self._validate_members(ys, "second summand set")
        return frozenset(x + y for x in xs for y in ys)

    def witness_noncancellative(self, subset):
        """Two distinct member sets the given set adds to the same sumset.

        With a, b the two smallest elements of the subset A, the witness
        is (A, A+A, (A+A) minus {a+b}); the equality A + lhs == A + rhs
        is re-verified before returning.
        """
        a_set = self._validate_members(subset, "subset")
        if len(a_set) < 2:
            raise PreconditionViolated("subset must have at least two elements")
        if len(a_set) > WITNESS_MAX:
            raise OrderCapExceeded(
                f"subset of {len(a_set)} members is above the supported "
                f"maximum of {WITNESS_MAX}")
        a, b = sorted(a_set)[:2]
        lhs = self.sumset(a_set, a_set)
        rhs = lhs - {a + b}
        if b + b not in rhs:  # 2b == a + b would force a == b
            raise TheoremViolation(f"witness for {sorted(a_set)} lost 2b")
        if self.sumset(a_set, lhs) != self.sumset(a_set, rhs):
            raise TheoremViolation(
                f"witness for {sorted(a_set)} does not equalize sumsets")
        return CancellationWitness(a_set, lhs, rhs, CASE2)

    def __eq__(self, other):
        """Equal gap sets; for numerical monoids equal and isomorphic coincide."""
        return isinstance(other, NumericalMonoid) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        gens = ", ".join(map(str, self.generators))
        return f"NumericalMonoid(<{gens}>)"


def random_monoid(rng, max_generator=40):
    """A random numerical monoid of two to four generators below
    max_generator; resamples until the gcd is 1."""
    while True:
        count = rng.randint(2, 4)
        gens = rng.sample(range(2, max_generator), count)
        if gcd(*gens) == 1:
            return NumericalMonoid(gens)


def random_member_set(rng, monoid, size):
    """A random set of `size` distinct members below 120."""
    members = [x for x in range(120) if x in monoid]
    return frozenset(rng.sample(members, size))


def equality_campaign(trials=100, seed=0):
    """Check the gap-set equality rule against pointwise membership.

    Per trial two monoids with generators below 40 are drawn (sometimes
    deliberately equal via a redundant extra generator) and the rule's
    verdict is compared with membership agreement over both horizons.
    Mismatches are reported, never expected.
    """
    _check_at_least(0, trials=trials)
    rng = random.Random(seed)
    mismatches = []
    equal_cases = 0
    for trial in range(trials):
        first = random_monoid(rng, 40)
        if rng.random() < 0.4:
            # Same monoid presented by a redundant generating set.
            extra = first.generators[0] + first.generators[-1]
            second = NumericalMonoid(first.generators + (extra,))
        else:
            second = random_monoid(rng, 40)
        bound = max(first._horizon, second._horizon)
        pointwise = all((x in first) == (x in second) for x in range(bound))
        if (first == second) != pointwise:
            mismatches.append({
                "trial": trial,
                "first": list(first.generators),
                "second": list(second.generators),
            })
        if pointwise:
            equal_cases += 1
    return {
        "trials": trials,
        "seed": seed,
        "equal_cases": equal_cases,
        "mismatches": mismatches,
    }


def witness_campaign(trials=1000, seed=0):
    """Construct and re-verify witnesses on random (monoid, set) instances,
    the monoids with generators below 30."""
    _check_at_least(0, trials=trials)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        monoid = random_monoid(rng, 30)
        subset = random_member_set(rng, monoid, rng.randint(2, 5))
        witness = monoid.witness_noncancellative(subset)
        ok = (witness.lhs != witness.rhs
              and witness.case_tag == CASE2
              and monoid.sumset(subset, witness.lhs)
              == monoid.sumset(subset, witness.rhs)
              and all(v in monoid for v in witness.lhs | witness.rhs))
        if not ok:
            failures.append({
                "trial": trial,
                "generators": list(monoid.generators),
                "subset": sorted(subset),
            })
    return {"trials": trials, "seed": seed, "failures": failures}
