from itertools import product
from math import comb

from triples import off_golden, triples

from brieskorn.classify import invariants
from brieskorn.genus import geometric_genus
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


# p_g by (a, b, c) on the families (2,3,6p+1), (2,4,4p+1), p <= 10, and on the
# (2, 6) and (2, 7) tables, k <= 4.  The (2, 6) table has twelve residues with
# period 12 in c (the stated period 10 is inconsistent with the listed residues
# i = 0..11 and with the boundary classification at (2, 6, 6..8); period 12
# reproduces exactly).  Acceptance criterion 2 checks every table.
PG_TABLES = {
    "(2,3,6p+1)": {(2, 3, 6 * p + 1): p for p in range(1, 11)},
    "(2,4,4p+1)": {(2, 4, 4 * p + 1): p for p in range(1, 11)},
    "(2,6)": {
        (2, 6, 12 * k + i): 6 * k + off
        for k in range(1, 5)
        for i, off in enumerate([0, 0, 0, 1, 1, 1, 3, 3, 3, 4, 4, 4])
    },
    "(2,7)": {
        (2, 7, 14 * k + i): 9 * k + off
        for k in range(1, 5)
        for i, off in enumerate([0, 0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 5, 6, 6])
    },
}


def pg_table_failures(name: str) -> list[tuple[int, int, int]]:
    table = PG_TABLES[name]
    return [abc for abc, pg in table.items() if geometric_genus(new_triple(*abc)) != pg]


class TestGeometricGenus:
    def test_rational_double_points(self):
        for c in range(2, 12):
            assert geometric_genus(new_triple(2, 2, c)) == 0
        for c in (3, 4, 5):
            assert geometric_genus(new_triple(2, 3, c)) == 0

    def test_known_values(self):
        assert not off_golden("pg", geometric_genus)

    def test_family_2_3_6p_plus_1(self):
        assert not pg_table_failures("(2,3,6p+1)")

    def test_family_2_4_4p_plus_1(self):
        assert not pg_table_failures("(2,4,4p+1)")

    def test_table_2_6(self):
        assert not pg_table_failures("(2,6)")

    def test_table_2_7(self):
        assert not pg_table_failures("(2,7)")

    def test_agrees_with_brute_force(self):
        for t in triples(9):
            assert geometric_genus(t) == brute_force_pg(t)

    def test_agrees_with_lattice_loop_oracle(self, walk_failures):
        assert not walk_failures("pg-lower-bound", "lattice loop")

    def test_golden_large_triple(self):
        # value of the direct t0/t1 lattice loop
        assert geometric_genus(new_triple(500, 700, 900)) == 52145700

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

    def test_tail_matches_termwise_sum(self, walk_failures):
        # p_g - q(m) = S(1): q-recursion checks q_1 = q(m) and q(1m) = p_g - S(1)
        assert not walk_failures("q-recursion", "q(m) formula", "S(1)")


class TestPgLowerBound:
    def test_holds_everywhere(self, walk_failures):
        assert not walk_failures("pg-lower-bound")

    def test_weak_form(self):
        for t in triples(14):
            assert geometric_genus(t) >= comb(t.pair.nr, 2)
