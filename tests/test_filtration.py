import pytest
from triples import triples

from brieskorn.errors import InternalCheckError
from brieskorn.filtration import colength_drop_oracle, normal_hilbert_coefficients, q_sequence
from brieskorn.genus import geometric_genus
from brieskorn.ring import new_triple


class TestNormalReductionNumber:
    def test_known_values(self):
        assert new_triple(2, 3, 7).pair.nr == 1
        assert new_triple(2, 4, 5).pair.nr == 2
        assert new_triple(3, 4, 7).pair.nr == 2
        assert new_triple(2, 6, 10).pair.nr == 3
        assert new_triple(3, 5, 8).pair.nr == 3

    def test_formula_is_floor(self):
        for t in triples(20):
            assert t.pair.nr == (t.a - 1) * t.b // t.a

    def test_oracle_agrees(self, walk_failures):
        assert not walk_failures("nr-formula-vs-staircase")

    def test_independent_of_c(self):
        for b in range(2, 12):
            values = {new_triple(2, b, c).pair.nr for c in range(b, 30)}
            assert len(values) == 1


class TestColengthDrop:
    def test_known_values(self):
        assert new_triple(2, 4, 5).pair.v == (1, 1, 0)
        assert new_triple(3, 4, 7).pair.v == (2, 1, 0)

    def test_vanishes_from_br(self):
        for t in triples(15):
            nr, v = t.pair.nr, t.pair.v
            assert v[nr] == 0 and colength_drop_oracle(t, nr + 1) == 0
            if nr >= 1:
                assert v[nr - 1] >= 1

    def test_agrees_with_colength_oracle(self):
        for t in triples(10):
            assert t.pair.v == tuple(colength_drop_oracle(t, n) for n in range(t.pair.nr + 1))

    def test_v0_is_a_minus_one(self):
        for t in triples(15):
            assert t.pair.v[0] == t.a - 1


class TestQSequence:
    def test_245(self):
        t = new_triple(2, 4, 5)
        assert q_sequence(t, geometric_genus(t)) == (1, 0, 0, 0)

    def test_347(self):
        t = new_triple(3, 4, 7)
        assert q_sequence(t, geometric_genus(t)) == (3, 2, 2, 2)

    def test_q_starts_at_pg_and_stabilizes(self):
        for t in triples(12):
            pg, nr = geometric_genus(t), t.pair.nr
            q = q_sequence(t, pg)
            assert q[0] == pg and len(q) == nr + 2
            assert q[nr] == q[nr + 1]
            assert all(q[n] >= q[n + 1] for n in range(nr + 1))

    def test_matches_per_n_q_value(self, walk_failures):
        # q(n*m) = p_g - S(n), with S(n) summed term by term
        assert not walk_failures("q-recursion", "p_g - S(")

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

    def test_a2_closed_form(self, walk_failures):
        assert not walk_failures("hilbert-coefficients", "a=2 coefficients")

    def test_e0_is_multiplicity(self, walk_failures):
        # the fit raises unless e0_bar = a
        assert not walk_failures("hilbert-coefficients", "multiplicity e0_bar")

    def test_closed_form_matches_fit(self, walk_failures):
        assert not walk_failures("hilbert-coefficients")
