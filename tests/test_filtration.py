import pytest

from brieskorn.errors import InternalCheckError
from brieskorn.filtration import (
    colength_drop,
    colength_drop_oracle,
    drop_sum,
    normal_hilbert_coefficients,
    normal_reduction_number,
    nr_by_staircase_oracle,
    q_sequence,
)
from brieskorn.genus import geometric_genus
from brieskorn.ring import BrieskornTriple, new_triple


def q_value(t, pg: int, n: int) -> int:
    """q(n*m) = p_g - S(n), with S(n) summed term by term; the oracle of q_sequence."""
    qn = pg - drop_sum(t, n)
    if qn < 0:
        raise InternalCheckError(f"{t}: q({n}*m) = {qn} < 0 with pg = {pg}")
    return qn


def all_triples(bound: int):
    for a in range(2, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                yield BrieskornTriple(a, b, c)


class TestNormalReductionNumber:
    def test_known_values(self):
        assert normal_reduction_number(new_triple(2, 3, 7)) == 1
        assert normal_reduction_number(new_triple(2, 4, 5)) == 2
        assert normal_reduction_number(new_triple(3, 4, 7)) == 2
        assert normal_reduction_number(new_triple(2, 6, 10)) == 3
        assert normal_reduction_number(new_triple(3, 5, 8)) == 3

    def test_formula_is_floor(self):
        for t in all_triples(20):
            assert normal_reduction_number(t) == (t.a - 1) * t.b // t.a

    def test_oracle_agrees(self):
        for t in all_triples(14):
            assert nr_by_staircase_oracle(t) == normal_reduction_number(t)

    def test_independent_of_c(self):
        for b in range(2, 12):
            values = {normal_reduction_number(new_triple(2, b, c)) for c in range(b, 30)}
            assert len(values) == 1


class TestColengthDrop:
    def test_known_values(self):
        t = new_triple(2, 4, 5)
        assert [colength_drop(t, n) for n in range(4)] == [1, 1, 0, 0]
        t = new_triple(3, 4, 7)
        assert [colength_drop(t, n) for n in range(4)] == [2, 1, 0, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            colength_drop(new_triple(2, 3, 4), -1)

    def test_vanishes_from_br(self):
        for t in all_triples(15):
            br = normal_reduction_number(t)
            assert colength_drop(t, br) == 0
            assert colength_drop(t, br + 1) == 0
            if br >= 1:
                assert colength_drop(t, br - 1) >= 1

    def test_agrees_with_colength_oracle(self):
        for t in all_triples(10):
            for n in range(normal_reduction_number(t) + 2):
                assert colength_drop(t, n) == colength_drop_oracle(t, n)

    def test_v0_is_a_minus_one(self):
        for t in all_triples(15):
            assert colength_drop(t, 0) == t.a - 1


class TestQSequence:
    def test_245(self):
        t = new_triple(2, 4, 5)
        seq = q_sequence(t, geometric_genus(t))
        assert seq.pg == 1
        assert seq.v == (1, 1, 0)
        assert seq.q == (1, 0, 0, 0)
        assert seq.nr == 2

    def test_347(self):
        t = new_triple(3, 4, 7)
        seq = q_sequence(t, geometric_genus(t))
        assert seq.pg == 3
        assert seq.v == (2, 1, 0)
        assert seq.q == (3, 2, 2, 2)

    def test_q_starts_at_pg_and_stabilizes(self):
        for t in all_triples(12):
            seq = q_sequence(t, geometric_genus(t))
            assert seq.q[0] == seq.pg
            assert seq.q[seq.nr] == seq.q[seq.nr + 1]
            assert all(seq.q[n] >= seq.q[n + 1] for n in range(seq.nr + 1))

    def test_matches_per_n_q_value(self):
        for t in all_triples(20):
            pg = geometric_genus(t)
            seq = q_sequence(t, pg)
            assert seq.q == tuple(q_value(t, pg, n) for n in range(seq.nr + 2))

    def test_q_value_monotone_in_pg(self):
        t = new_triple(2, 6, 13)
        pg = geometric_genus(t)
        assert q_value(t, pg + 5, 1) == q_value(t, pg, 1) + 5

    def test_rejects_negative_pg(self):
        with pytest.raises(ValueError):
            q_sequence(new_triple(2, 3, 4), -1)

    def test_too_small_pg_fails_sanity(self):
        # q(n) would go negative, which the internal check must catch
        with pytest.raises(InternalCheckError):
            q_sequence(new_triple(2, 6, 13), 0)


class TestHilbertCoefficients:
    def test_245(self):
        assert normal_hilbert_coefficients(new_triple(2, 4, 5)) == (2, 2, 1)

    def test_347(self):
        assert normal_hilbert_coefficients(new_triple(3, 4, 7)) == (3, 3, 1)

    def test_rational_double_point(self):
        # (2,3,5) is rational: e2_bar = 0
        assert normal_hilbert_coefficients(new_triple(2, 3, 5)) == (2, 1, 0)

    def test_a2_closed_form(self):
        from math import comb

        for b in range(2, 16):
            for c in range(b, 18):
                r = b // 2
                got = normal_hilbert_coefficients(new_triple(2, b, c))
                assert got == (2, r, comb(r, 2))

    def test_e0_is_multiplicity(self):
        for t in all_triples(10):
            assert normal_hilbert_coefficients(t)[0] == t.a

    def test_closed_form_matches_fit(self):
        for t in all_triples(20):
            assert q_sequence(t, geometric_genus(t)).hilbert == normal_hilbert_coefficients(t), t
