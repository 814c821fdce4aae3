from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from brieskorn.numtheory import hj_expand, mod_inverse_negation


def hj_evaluate(expansion) -> Fraction:
    """Exact rational value of a descending continued fraction.

    Inverse of hj_expand: hj_evaluate(hj_expand(a, b)) == a/b.
    """
    terms = tuple(expansion)
    if not terms:
        raise ValueError("cannot evaluate an empty expansion")
    if any(c < 2 for c in terms):
        raise ValueError(f"all entries must be >= 2, got {terms}")
    value = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        value = c - 1 / value
    return value


def test_expand_known_values():
    assert hj_expand(3, 2) == (2, 2)
    assert hj_expand(7, 4) == (2, 4)
    assert hj_expand(1, 0) == ()
    assert hj_expand(4, 3) == (2, 2, 2)


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        hj_expand(3, 3)
    with pytest.raises(ValueError):
        hj_expand(3, -1)
    with pytest.raises(ValueError):
        hj_expand(6, 4)  # not coprime
    with pytest.raises(ValueError):
        hj_expand(5, 0)  # beta = 0 only with alpha = 1


def test_evaluate_known_values():
    assert hj_evaluate([2, 2]) == Fraction(3, 2)
    assert hj_evaluate([2]) == Fraction(2)
    assert hj_evaluate([2, 4]) == Fraction(7, 4)
    # 2 - 1/(2 - 1/2) = 4/3, by hand
    assert hj_evaluate([2, 2, 2]) == Fraction(4, 3)


def test_evaluate_rejects_entries_below_two():
    with pytest.raises(ValueError):
        hj_evaluate([2, 1])
    with pytest.raises(ValueError):
        hj_evaluate([])


@given(st.integers(2, 500), st.integers(1, 499))
def test_round_trip_and_entry_bound(alpha, beta):
    beta %= alpha
    if beta == 0 or gcd(alpha, beta) != 1:
        return
    expansion = hj_expand(alpha, beta)
    assert all(c >= 2 for c in expansion)
    assert len(expansion) <= alpha - 1
    assert hj_evaluate(expansion) == Fraction(alpha, beta)


def test_mod_inverse_negation_known_values():
    assert mod_inverse_negation(28, 3) == 2
    assert mod_inverse_negation(12, 7) == 4
    assert mod_inverse_negation(5, 1) == 0


@given(st.integers(1, 400), st.integers(1, 400))
def test_mod_inverse_negation_property(lam, alpha):
    if gcd(lam % alpha, alpha) != 1 and alpha > 1:
        with pytest.raises(ValueError):
            mod_inverse_negation(lam, alpha)
        return
    beta = mod_inverse_negation(lam, alpha)
    assert 0 <= beta < alpha or (alpha == 1 and beta == 0)
    assert (lam * beta + 1) % alpha == 0
