import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersemi import (PreconditionViolated, cancellativity_campaign,
                       leading_letter_disjoint,
                       letters_cancellation_consistent, word_product)

A, B = 0, 1


def test_concatenation_products():
    assert word_product({(A,), (B,)}, {(A, B)}) == {(A, A, B), (B, A, B)}
    assert word_product({(A,)}, {(A,)}) == {(A, A)}
    assert word_product({(A,), (A, B)}, {(B,)}) == {(A, B), (A, B, B)}


def test_product_rejects_empty_inputs():
    with pytest.raises(PreconditionViolated):
        word_product(set(), {(A,)})
    with pytest.raises(PreconditionViolated):
        word_product({(A,)}, {()})


def test_consistency_when_sets_differ():
    # products {aab, bab} vs {aab, bab, ab, bb} differ, as they must
    ys1 = {(A, B)}
    ys2 = {(A, B), (B,)}
    assert letters_cancellation_consistent({A, B}, ys1, ys2)
    p1 = word_product({(A,), (B,)}, ys1)
    p2 = word_product({(A,), (B,)}, ys2)
    assert p1 != p2


def test_consistency_when_sets_equal():
    ys = {(A, B, A), (B,)}
    assert letters_cancellation_consistent({A, B}, ys, ys)


def test_consistency_holds_on_the_right_too():
    ys1 = {(A, B)}
    ys2 = {(A, B), (B,)}
    assert letters_cancellation_consistent({A, B}, ys1, ys2)
    assert word_product(ys1, {(A,), (B,)}) != word_product(ys2, {(A,), (B,)})


def test_disjointness_of_leading_letters():
    assert leading_letter_disjoint({A, B}, {(A, B)}, {(B, B), (A,)})


def test_letters_must_be_valid():
    with pytest.raises(PreconditionViolated):
        letters_cancellation_consistent(set(), {(A,)}, {(A,)})
    with pytest.raises(PreconditionViolated):
        letters_cancellation_consistent({-1}, {(A,)}, {(A,)})


@pytest.mark.parametrize("check", [letters_cancellation_consistent,
                                   leading_letter_disjoint])
@pytest.mark.parametrize("letters", [[], ["a"], [-1], [A, 1.5], [True],
                                     [np.True_]],
                         ids=["empty", "string", "negative", "float", "bool",
                              "numpy-bool"])
def test_both_letter_checks_reject_invalid_letters(check, letters):
    with pytest.raises(PreconditionViolated):
        check(letters, {(A,)}, {(B,)})


@pytest.mark.parametrize("letter", [True, np.True_, 1.0, "0", None],
                         ids=["bool", "numpy-bool", "float", "string", "none"])
def test_word_sets_refuse_non_integer_letters(letter):
    with pytest.raises(PreconditionViolated):
        word_product([(letter,)], [(A,)])
    with pytest.raises(PreconditionViolated):
        word_product([(A,)], [(B, letter)])
    with pytest.raises(PreconditionViolated):
        leading_letter_disjoint([A], {(letter,)}, {(B,)})


def test_numpy_integer_letters_are_letters():
    assert word_product([(np.int64(1),)], [(np.int32(0),)]) == {(1, 0)}
    letters = [np.int64(A), np.uint8(B)]
    assert letters_cancellation_consistent(letters, {(A,)}, {(B,)})
    assert leading_letter_disjoint(letters, {(np.int64(A),)}, {(B,)})


words = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)
word_sets = st.frozensets(words, min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.frozensets(st.integers(0, 3), min_size=1, max_size=4),
       word_sets, word_sets)
def test_letter_sets_always_separate_word_sets(letters, ys1, ys2):
    assert letters_cancellation_consistent(letters, ys1, ys2)
    assert leading_letter_disjoint(letters, ys1, ys2)


def test_campaign_short_run_clean():
    report = cancellativity_campaign(alphabet=3, trials=400, seed=11)
    assert report["violations"] == []
    assert report["disjointness_failures"] == []
    assert report["equal_set_trials"] > 0
    assert report["trials"] == 400


@pytest.mark.parametrize("argument", [
    {"alphabet": 1}, {"max_word_len": 0}, {"max_set_size": 0},
    {"trials": -1}, {"alphabet": 2.5}], ids=str)
def test_campaign_rejects_arguments_below_the_cli_bounds(argument):
    with pytest.raises(PreconditionViolated, match=next(iter(argument))):
        cancellativity_campaign(**argument)


def test_campaign_deterministic():
    one = cancellativity_campaign(alphabet=3, trials=200, seed=5)
    two = cancellativity_campaign(alphabet=3, trials=200, seed=5)
    assert json.dumps(one) == json.dumps(two)
