import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersemi import (CASE2, NonMemberInput, NumericalMonoid,
                       OrderCapExceeded, PreconditionViolated,
                       equality_campaign,
                       random_member_set, random_monoid, witness_campaign)
from powersemi.numerical import WITNESS_MAX


def naive_member(gens, x, depth=None):
    """Oracle: bounded search over generator multiplicities."""
    bounds = [x // g + 1 for g in gens]
    for coeffs in product(*(range(b) for b in bounds)):
        if sum(c * g for c, g in zip(coeffs, gens)) == x:
            return True
    return False


@pytest.mark.parametrize("gens,expected_gaps", [
    ((2, 3), (1,)),
    ((3, 5), (1, 2, 4, 7)),
    ((4, 6, 9), (1, 2, 3, 5, 7, 11)),
    ((1,), ()),
])
def test_gaps_against_bounded_search_oracle(gens, expected_gaps):
    monoid = NumericalMonoid(gens)
    oracle_gaps = tuple(x for x in range(40) if not naive_member(gens, x))
    assert monoid.gaps == expected_gaps == oracle_gaps
    assert monoid.frobenius == (max(expected_gaps) if expected_gaps else -1)


def test_membership_agrees_with_oracle_well_past_the_gaps():
    for gens in ((2, 3), (3, 5), (4, 6, 9), (5, 7, 9, 11)):
        monoid = NumericalMonoid(gens)
        for x in range(60):
            assert (x in monoid) == naive_member(gens, x)


def test_zero_is_always_a_member():
    assert 0 in NumericalMonoid((7, 11))
    assert NumericalMonoid((7, 11)).membership(0)


def test_membership_rejects_negatives():
    monoid = NumericalMonoid((2, 3))
    assert -1 not in monoid
    with pytest.raises(PreconditionViolated):
        monoid.membership(-1)


def test_generator_validation():
    with pytest.raises(PreconditionViolated):
        NumericalMonoid((2, 4))  # gcd 2
    with pytest.raises(PreconditionViolated):
        NumericalMonoid((0, 3))
    with pytest.raises(PreconditionViolated):
        NumericalMonoid(())


def test_generators_past_the_horizon_bound_exceed_the_cap():
    with pytest.raises(OrderCapExceeded,
                       match="need a membership horizon of 4004001"):
        NumericalMonoid((2000, 2001))


@pytest.mark.parametrize("gens", [[2.7, 3], [3.0, 5], ["3", 5], [True, 3],
                                  [None, 3], [np.float64(3.0), 5]],
                         ids=["float", "integral-float", "string", "bool",
                              "none", "numpy-float"])
def test_generators_must_be_integers(gens):
    with pytest.raises(PreconditionViolated,
                       match="generators must be positive integers"):
        NumericalMonoid(gens)


@pytest.mark.parametrize("member", [3.5, 3.0, "3", True, None],
                         ids=["float", "integral-float", "string", "bool",
                              "none"])
def test_members_must_be_integers(member):
    monoid = NumericalMonoid([3, 5])
    with pytest.raises(NonMemberInput):
        monoid.sumset([member], [5])
    with pytest.raises(NonMemberInput):
        monoid.sumset([5], [member])
    with pytest.raises(NonMemberInput):
        monoid.witness_noncancellative([member, 5])


@pytest.mark.parametrize("value", [3.5, 6.0, 100.0, "3", True, False, None],
                         ids=["float", "integral-float", "float-past-horizon",
                              "string", "true", "false", "none"])
def test_non_integers_are_not_members(value):
    monoid = NumericalMonoid([3, 5])
    assert value not in monoid
    with pytest.raises(PreconditionViolated,
                       match="membership is defined on non-negative integers"):
        monoid.membership(value)


def test_numpy_integers_are_generators_and_members():
    monoid = NumericalMonoid([np.int64(5), np.int32(3)])
    assert monoid.generators == (3, 5)
    assert all(type(g) is int for g in monoid.generators)
    assert monoid.sumset([np.int64(3)], [np.uint8(5)]) == {8}
    assert np.int64(6) in monoid and np.uint8(7) not in monoid
    assert monoid.membership(np.int32(100))
    assert not monoid.membership(np.int64(4))


def test_equality_by_gap_sets():
    assert NumericalMonoid((2, 3)) == NumericalMonoid((2, 3))
    assert NumericalMonoid((2, 3)) != NumericalMonoid((3, 4, 5))
    # redundant generator, same monoid
    assert NumericalMonoid((2, 3)) == NumericalMonoid((2, 3, 5))
    assert NumericalMonoid((4, 6, 9)) != NumericalMonoid((4, 6, 9, 11))


def test_sumsets():
    m23 = NumericalMonoid((2, 3))
    assert m23.sumset({2, 3}, {2, 3}) == {4, 5, 6}
    assert m23.sumset({0}, {2, 5, 6}) == {2, 5, 6}
    m35 = NumericalMonoid((3, 5))
    assert m35.sumset({3, 5}, {3}) == {6, 8}


def test_sumset_rejects_non_members():
    with pytest.raises(NonMemberInput):
        NumericalMonoid((2, 3)).sumset({1, 2}, {2})
    with pytest.raises(NonMemberInput):
        NumericalMonoid((2, 3)).sumset(set(), {2})


def test_witness_on_two_three():
    monoid = NumericalMonoid((2, 3))
    witness = monoid.witness_noncancellative({2, 3})
    assert witness.case_tag == CASE2
    assert witness.lhs == frozenset({4, 5, 6})
    assert witness.rhs == frozenset({4, 6})
    # oracle: both translates are {6, 7, 8, 9}
    lhs_sums = {a + b for a in (2, 3) for b in (4, 5, 6)}
    rhs_sums = {a + b for a in (2, 3) for b in (4, 6)}
    assert lhs_sums == rhs_sums == {6, 7, 8, 9}


def test_witness_on_the_naturals():
    naturals = NumericalMonoid((1,))
    witness = naturals.witness_noncancellative({0, 1})
    assert witness.lhs == frozenset({0, 1, 2})
    assert witness.rhs == frozenset({0, 2})
    sums = {a + b for a in (0, 1) for b in (0, 1, 2)}
    assert sums == {a + b for a in (0, 1) for b in (0, 2)} == {0, 1, 2, 3}


# Every integer from 8 on is a member of <3, 5>; these are spread out.
SPREAD = [8 + 7 * i for i in range(WITNESS_MAX + 1)]


def test_witness_above_the_member_ceiling_builds_no_sumset(monkeypatch):
    monoid = NumericalMonoid((3, 5))

    def built(self, xs, ys):
        raise RuntimeError("sumset built above the ceiling")

    monkeypatch.setattr(NumericalMonoid, "sumset", built)
    with pytest.raises(OrderCapExceeded, match=f"{WITNESS_MAX + 1} members"):
        monoid.witness_noncancellative(SPREAD)


def test_witness_at_the_member_ceiling_is_verified():
    monoid = NumericalMonoid((3, 5))
    subset = SPREAD[:WITNESS_MAX]
    witness = monoid.witness_noncancellative(subset)
    assert witness.case_tag == CASE2
    assert witness.lhs != witness.rhs
    assert monoid.sumset(subset, witness.lhs) == \
        monoid.sumset(subset, witness.rhs)


def test_witness_requires_two_elements():
    with pytest.raises(PreconditionViolated):
        NumericalMonoid((2, 3)).witness_noncancellative({2})


def test_witness_report_mirrors_finite_schema():
    witness = NumericalMonoid((2, 3)).witness_noncancellative({2, 3})
    assert witness.report() == {"case": "Case2", "multiplier": [2, 3],
                                "lhs": [4, 5, 6], "rhs": [4, 6]}


def test_members_are_cancellative_by_sampling():
    rng = random.Random(4)
    monoid = NumericalMonoid((3, 7))
    members = [x for x in range(80) if x in monoid]
    for _ in range(200):
        a, x, y = rng.choice(members), rng.choice(members), rng.choice(members)
        if a + x == a + y:
            assert x == y


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 50), st.integers(0, 50))
def test_membership_closed_under_addition(i, j):
    monoid = NumericalMonoid((4, 7))
    members = [x for x in range(80) if x in monoid]
    assert members[i % len(members)] + members[j % len(members)] in monoid


def test_random_monoid_and_member_set_are_reproducible():
    one = random_monoid(random.Random(12))
    two = random_monoid(random.Random(12))
    assert one.generators == two.generators
    assert random_member_set(random.Random(3), one, 4) == \
        random_member_set(random.Random(3), two, 4)


@pytest.mark.parametrize("campaign", [equality_campaign, witness_campaign])
@pytest.mark.parametrize("trials", [-1, True, 2.0])
def test_campaigns_reject_trials_that_are_not_counts(campaign, trials):
    with pytest.raises(PreconditionViolated, match="trials"):
        campaign(trials=trials)


def test_equality_campaign_clean_and_deterministic():
    report = equality_campaign(trials=60, seed=21)
    assert report["mismatches"] == []
    assert report["equal_cases"] >= 1
    assert json.dumps(report) == json.dumps(equality_campaign(trials=60, seed=21))


def test_witness_campaign_clean_and_deterministic():
    report = witness_campaign(trials=150, seed=8)
    assert report["failures"] == []
    assert json.dumps(report) == json.dumps(witness_campaign(trials=150, seed=8))
