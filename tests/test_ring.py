from itertools import product

import pytest
from triples import triples

from brieskorn.classify import invariants
from brieskorn.resolution import dual_graph, fundamental_cycle, seifert_data
from brieskorn.ring import (
    BrieskornPair,
    Monomial,
    StaircaseIdeal,
    closure_of_m_power,
    colength,
    contains,
    multiply_by_Q,
    new_triple,
    power_membership_degree,
)


def brute_force_colength(ideal: StaircaseIdeal) -> int:
    """Independent oracle: enumerate basis monomials outside the ideal."""
    total = 0
    for e in ideal.thresholds:
        total += sum(1 for i, j in product(range(e), repeat=2) if i + j < e)
    return total


def test_every_record_is_an_immutable_tuple_of_its_fields():
    t = new_triple(3, 4, 7)
    g = dual_graph(t)
    records = [
        t, t.pair, Monomial(2, 0, 1), closure_of_m_power(t.pair, 2),
        seifert_data(t), g, fundamental_cycle(g), invariants(t),
    ]
    for record in records:
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_make_and_replace_check_their_arguments_as_construction_does():
    t = new_triple(3, 4, 7)
    refused = [
        (lambda: t._replace(a=1), "need a >= 2, got a=1"),
        (lambda: BrieskornPair._make((5, 2)), r"need a <= b, got \(5, 2\)"),
        (lambda: Monomial._make((0, -1, 0)),
         r"exponents must be nonnegative, got Monomial\(k=0, i=-1, j=0\)"),
        (lambda: StaircaseIdeal((1, 2))._replace(thresholds=(-1,)),
         "thresholds must be nonnegative, got -1"),
    ]
    for build, message in refused:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()
    replaced = t._replace(c=8)
    assert type(replaced) is type(t) and replaced == (3, 4, 8)


class TestTriple:
    def test_347_constants(self):
        t = new_triple(3, 4, 7)
        assert t.pair.n_seq == (0, 1, 2)
        assert (t.q0, t.q1, t.q2) == (28, 21, 12)
        assert t.D == 84
        assert t.a_invariant == 84 - 28 - 21 - 12

    def test_225_constants(self):
        t = new_triple(2, 2, 5)
        assert t.pair.n_seq == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^need a <= b <= c, got \(4, 3, 5\)$"):
            new_triple(4, 3, 5)
        with pytest.raises(ValueError, match="^need a >= 2, got a=1$"):
            new_triple(1, 2, 3)

    def test_expansion_degrees_are_the_least_term_degree(self):
        # the O(a^2) minimum over every term y^{bs} z^{c(k-s)} of (y^b + z^c)^k
        for t in triples(40):
            assert t.expansion_min_degrees == tuple(
                min(t.b * s + t.c * (k - s) for s in range(k + 1)) for k in range(t.a)
            )

    def test_n_seq_strictly_increasing_from_one(self):
        for t in triples(15):
            n = t.pair.n_seq
            assert n[0] == 0
            assert all(n[k] >= k for k in range(t.a))
            assert all(n[k] < n[k + 1] for k in range(1, t.a - 1))


class TestPair:
    def test_has_no_c(self):
        assert BrieskornPair._fields == ("a", "b")

    def test_triples_of_one_pair_share_its_data(self):
        pair = BrieskornPair(4, 6)
        data = (pair.n_seq, pair.nr, pair.v, pair.hilbert)
        assert data == ((0, 1, 3, 4), 4, (3, 2, 2, 1, 0), (4, 8, 9))
        for c in (6, 9, 40):
            t = new_triple(4, 6, c)
            assert (t.pair.n_seq, t.pair.nr, t.pair.v, t.pair.hilbert) == data
            assert pair.triple(c).pair is pair

    def test_validation(self):
        with pytest.raises(ValueError):
            BrieskornPair(1, 3)
        with pytest.raises(ValueError):
            BrieskornPair(4, 3)
        with pytest.raises(ValueError, match=r"^need a <= b, got \(3, 2\)$"):
            BrieskornPair(3, 2)


class TestClosure:
    def test_thresholds_256(self):
        t = new_triple(2, 5, 6)
        assert closure_of_m_power(t.pair, 3).thresholds == (3, 1)

    def test_unit_ideal_at_zero(self):
        t = new_triple(3, 4, 7)
        assert closure_of_m_power(t.pair, 0).thresholds == (0, 0, 0)

    def test_347_square_contains_x_squared(self):
        t = new_triple(3, 4, 7)
        ideal = closure_of_m_power(t.pair, 2)
        assert ideal.thresholds == (2, 1, 0)
        assert contains(ideal, Monomial(2, 0, 0))

    def test_membership_examples(self):
        assert contains(closure_of_m_power(new_triple(2, 5, 10).pair, 3), Monomial(1, 0, 1))
        assert not contains(closure_of_m_power(new_triple(2, 5, 10).pair, 1), Monomial(0, 0, 0))
        assert contains(closure_of_m_power(new_triple(3, 4, 8).pair, 3), Monomial(2, 0, 1))

    def test_an_ideal_is_its_thresholds(self):
        assert StaircaseIdeal._fields == ("thresholds",)
        with pytest.raises(ValueError, match="nonnegative"):
            StaircaseIdeal((1, -1))

    def test_a_monomial_has_nonnegative_exponents(self):
        with pytest.raises(
            ValueError, match=r"^exponents must be nonnegative, got Monomial\(k=0, i=-1, j=0\)$"
        ):
            Monomial(0, -1, 0)

    def test_membership_rejects_a_level_past_a_minus_1(self):
        t = new_triple(3, 4, 7)
        with pytest.raises(ValueError, match="exceeds a-1 = 2"):
            contains(closure_of_m_power(t.pair, 2), Monomial(t.a, 0, 0))


class TestMultiplyByQ:
    def test_shift(self):
        assert multiply_by_Q(StaircaseIdeal((3, 1))).thresholds == (4, 2)

    def test_equality_onset_25c(self):
        t = new_triple(2, 5, 11)
        hits = [
            n
            for n in range(6)
            if multiply_by_Q(closure_of_m_power(t.pair, n)) == closure_of_m_power(t.pair, n + 1)
        ]
        assert hits == [2, 3, 4, 5]  # first at n_1 = 2

    def test_equality_33c(self):
        t = new_triple(3, 3, 9)
        assert multiply_by_Q(closure_of_m_power(t.pair, 2)) == closure_of_m_power(t.pair, 3)


class TestColength:
    def test_maximal_ideal_has_colength_one(self):
        for t in [new_triple(2, 2, 2), new_triple(3, 4, 7), new_triple(5, 6, 7)]:
            assert colength(closure_of_m_power(t.pair, 1)) == 1

    def test_245_cube(self):
        # 7 = T(3) + T(1); frozen after checking against brute-force enumeration
        ideal = closure_of_m_power(new_triple(2, 4, 5).pair, 3)
        assert colength(ideal) == 7
        assert brute_force_colength(ideal) == 7

    def test_agrees_with_enumeration(self):
        for t in triples(7):
            for n in range(0, 8):
                ideal = closure_of_m_power(t.pair, n)
                assert colength(ideal) == brute_force_colength(ideal)


class TestPowerMembershipOracle:
    """x^k y^i z^j is in closure(m^n) by the a-th power iff i + j >= power_membership_degree."""

    def test_examples(self):
        t, m = new_triple(2, 5, 10), Monomial(1, 0, 1)
        assert m.i + m.j >= power_membership_degree(t, m.k, 3)
        assert not m.i + m.j >= power_membership_degree(t, m.k, 4)

    def test_level_zero_reduces_to_q_power(self):
        t = new_triple(3, 5, 7)
        for n in range(1, 6):
            for i in range(6):
                for j in range(6):
                    expected = i + j >= n
                    assert (i + j >= power_membership_degree(t, 0, n)) == expected

    def test_agrees_with_staircase(self):
        # both sides depend on i, j only through i + j
        for t in triples(12):
            top = t.pair.n_seq[t.a - 1] + 2
            for n in range(1, top + 1):
                ideal = closure_of_m_power(t.pair, n)
                for k in range(t.a):
                    for s in range(n + 1):
                        m = Monomial(k, s - s // 2, s // 2)
                        member = m.i + m.j >= power_membership_degree(t, m.k, n)
                        assert contains(ideal, m) == member

    def test_degree_is_where_the_oracle_turns_true(self):
        for t in triples(12):
            for k in range(t.a):
                for n in range(1, t.pair.n_seq[t.a - 1] + 3):
                    degree = power_membership_degree(t, k, n)
                    assert 0 <= degree <= n
                    # least s with every term of (y^b + z^c)^k y^{as} of degree >= n*a
                    assert degree == min(
                        s for s in range(n + 1)
                        if all(t.b * r + t.c * (k - r) + t.a * s >= n * t.a for r in range(k + 1))
                    )

    def test_degree_rejects_bad_arguments(self):
        t = new_triple(3, 4, 7)
        for k, n in [(0, 0), (-1, 1), (3, 1)]:
            with pytest.raises(ValueError):
                power_membership_degree(t, k, n)

    def test_sandwich_q_power_inside_closure(self):
        for t in triples(8):
            for n in range(1, 8):
                ideal = closure_of_m_power(t.pair, n)
                assert ideal.thresholds[0] <= n
                for k in range(t.a):
                    # generator x^k * Q^{max(n - n_k, 0)} is admitted
                    e = max(n - t.pair.n_seq[k], 0)
                    assert contains(ideal, Monomial(k, e, 0))
