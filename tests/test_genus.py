from itertools import product
from math import comb

from hypothesis import given, strategies as st
from triples import off_golden, triples

from brieskorn.classify import invariants
from brieskorn.genus import geometric_genus, geometric_genus_oracle
from brieskorn.ring import BrieskornTriple, new_triple


def brute_force_pg(t: BrieskornTriple) -> int:
    """Independent oracle: triple loop over the full lattice box."""
    bound = t.a_invariant
    if bound < 0:
        return 0
    return sum(
        1
        for t0, t1, t2 in product(
            range(bound // t.q0 + 1), range(bound // t.q1 + 1), range(bound // t.q2 + 1)
        )
        if t.q0 * t0 + t.q1 * t1 + t.q2 * t2 <= bound
    )


class TestGeometricGenus:
    def test_known_values(self):
        assert not off_golden("pg", geometric_genus)

    def test_agrees_with_brute_force(self):
        for t in triples(9):
            assert geometric_genus(t) == brute_force_pg(t)

    def test_golden_large_triple(self):
        # value of the direct t0/t1 lattice loop
        assert geometric_genus(new_triple(500, 700, 900)) == 52145700

    @given(st.data())
    def test_deep_euclid_ladders_agree_with_the_lattice_loop(self, data):
        # large first quotients c // b, which neither the walk to 40 nor the brute
        # force to 9 reaches; the O(ab) loop keeps this cheap
        a = data.draw(st.integers(2, 8))
        b = data.draw(st.integers(a, 30))
        t = BrieskornTriple(a, b, data.draw(st.integers(b, 3000)))
        assert geometric_genus(t) == geometric_genus_oracle(t)

    def test_monotone_in_c(self):
        for a in range(2, 6):
            for b in range(a, 8):
                values = [geometric_genus(new_triple(a, b, c)) for c in range(b, 25)]
                assert all(x <= y for x, y in zip(values, values[1:]))


class TestQOfM:
    # q(m) is q_1 of the record; q_sequence raises on any q(n) < 0, and
    # q(m) = p_g - S(1) with every v_n >= 0, so 0 <= q(m) <= p_g holds there
    def test_known_values(self):
        assert not off_golden("q", lambda t: invariants(t).q)

    def test_pg_ideal_case_reaches_pg(self):
        # for a = 2, b in {2, 3} the tail vanishes and q(m) = p_g
        for c in range(3, 20):
            t = new_triple(2, 3, c)
            assert invariants(t).q[1] == geometric_genus(t)


class TestPgLowerBound:
    def test_weak_form(self):
        for t in triples(14):
            assert geometric_genus(t) >= comb(t.pair.nr, 2)
