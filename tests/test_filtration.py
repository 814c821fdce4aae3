import re
from itertools import combinations_with_replacement, starmap

import pytest
from triples import GOLDEN, off_golden, triples

from brieskorn.errors import InternalCheckError
from brieskorn.filtration import colength_drop_oracle, normal_hilbert_coefficients, q_sequence
from brieskorn.genus import geometric_genus
from brieskorn.ring import BrieskornPair, new_triple

# every pair up to 40, and pairs whose runs n_{k-1} <= n < n_k are long (b >> a) or many
REFERENCE_PAIRS = [
    *starmap(BrieskornPair, combinations_with_replacement(range(2, 41), 2)),
    *starmap(BrieskornPair, [(2, 999), (3, 1000), (7, 997), (40, 1000), (500, 700)]),
]


def v_by_formula(p: BrieskornPair) -> tuple[int, ...]:
    """v_n = max(a - ceil(a(n+1)/b), 0) element by element: the reference of BrieskornPair.v."""
    return tuple(max(p.a + -p.a * (n + 1) // p.b, 0) for n in range(p.nr + 1))


def drop_sums_by_running_sums(v: tuple[int, ...]) -> tuple[int, ...]:
    """S(n), n = 0..nr+1, from head = sum_{1<=k<=n} k*v_k and tail = sum_{k>n} v_k, one n
    at a time: the reference of BrieskornPair.drop_sums."""
    nr = len(v) - 1
    head, tail = 0, sum(v[1:])
    sums = []
    for n in range(nr + 2):
        if 1 <= n <= nr:
            head, tail = head + n * v[n], tail - v[n]
        sums.append(head + n * tail)
    return tuple(sums)


class TestNormalReductionNumber:
    def test_known_values(self):
        assert not off_golden("nr", lambda t: t.pair.nr)

    def test_formula_is_floor(self):
        for t in triples(20):
            assert t.pair.nr == (t.a - 1) * t.b // t.a

    def test_independent_of_c(self):
        for b in range(2, 12):
            values = {new_triple(2, b, c).pair.nr for c in range(b, 30)}
            assert len(values) == 1


class TestColengthDrop:
    def test_known_values(self):
        assert not off_golden("v", lambda t: t.pair.v)

    def test_vanishes_from_br(self):
        for t in triples(15):
            nr, v = t.pair.nr, t.pair.v
            assert v[nr] == 0 and colength_drop_oracle(t.pair, nr + 1) == 0
            if nr >= 1:
                assert v[nr - 1] >= 1

    def test_agrees_with_colength_oracle(self):
        for t in triples(10):
            assert t.pair.v == tuple(colength_drop_oracle(t.pair, n) for n in range(t.pair.nr + 1))

    def test_v0_is_a_minus_one(self):
        for t in triples(15):
            assert t.pair.v[0] == t.a - 1

    def test_runs_match_the_per_element_formula(self):
        for p in REFERENCE_PAIRS:
            assert p.v == v_by_formula(p), p

    def test_drop_sums_match_the_running_sums(self):
        for p in REFERENCE_PAIRS:
            assert p.drop_sums == drop_sums_by_running_sums(v_by_formula(p)), p

    def test_drop_sums_refuse_a_v_off_the_hilbert_coefficients(self, monkeypatch):
        exact = BrieskornPair.v.func

        def off_at_one(p):
            # S(1) = e1 - (a - 1) and S(nr + 1) = e2 both see v_1
            v0, v1, *rest = exact(p)
            return (v0, v1 + 1, *rest)

        monkeypatch.setattr(BrieskornPair, "v", property(off_at_one))
        p = BrieskornPair(4, 6)
        with pytest.raises(InternalCheckError, match=rf"^{re.escape(str(p))}: S\(1\)"):
            p.drop_sums


class TestQSequence:
    def test_245(self):
        t = new_triple(2, 4, 5)
        assert q_sequence(t, geometric_genus(t)) == GOLDEN[2, 4, 5].q

    def test_347(self):
        t = new_triple(3, 4, 7)
        assert q_sequence(t, geometric_genus(t)) == GOLDEN[3, 4, 7].q

    def test_q_starts_at_pg_and_stabilizes(self):
        for t in triples(12):
            pg, nr = geometric_genus(t), t.pair.nr
            q = q_sequence(t, pg)
            assert q[0] == pg and len(q) == nr + 2
            assert q[nr] == q[nr + 1]
            assert all(q[n] >= q[n + 1] for n in range(nr + 1))

    def test_rejects_negative_pg(self):
        with pytest.raises(ValueError):
            q_sequence(new_triple(2, 3, 4), -1)

    def test_too_small_pg_fails_sanity(self):
        # q(n) would go negative, which the internal check must catch
        with pytest.raises(InternalCheckError):
            q_sequence(new_triple(2, 6, 13), 0)


class TestHilbertCoefficients:
    def test_245(self):
        assert normal_hilbert_coefficients(new_triple(2, 4, 5).pair) == GOLDEN[2, 4, 5].hilbert

    def test_347(self):
        assert normal_hilbert_coefficients(new_triple(3, 4, 7).pair) == GOLDEN[3, 4, 7].hilbert

    def test_rational_double_point(self):
        # (2,3,5) is rational: e2_bar = 0
        assert normal_hilbert_coefficients(new_triple(2, 3, 5).pair) == GOLDEN[2, 3, 5].hilbert
