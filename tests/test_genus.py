from itertools import product
from math import comb

from brieskorn.filtration import q_sequence
from brieskorn.genus import geometric_genus, geometric_genus_oracle, pg_bound_holds, q_of_m
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


def all_triples(bound: int):
    for a in range(2, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                yield BrieskornTriple(a, b, c)


class TestGeometricGenus:
    def test_rational_double_points(self):
        for c in range(2, 12):
            assert geometric_genus(new_triple(2, 2, c)) == 0
        for c in (3, 4, 5):
            assert geometric_genus(new_triple(2, 3, c)) == 0

    def test_known_values(self):
        assert geometric_genus(new_triple(2, 3, 7)) == 1
        assert geometric_genus(new_triple(2, 4, 5)) == 1
        assert geometric_genus(new_triple(3, 4, 7)) == 3
        assert geometric_genus(new_triple(2, 6, 10)) == 4

    def test_family_2_3_6p_plus_1(self):
        for p in range(1, 11):
            assert geometric_genus(new_triple(2, 3, 6 * p + 1)) == p

    def test_family_2_4_4p_plus_1(self):
        for p in range(1, 11):
            assert geometric_genus(new_triple(2, 4, 4 * p + 1)) == p

    def test_table_2_6(self):
        # p_g(2, 6, 12k + i) for i = 0..11, k >= 1
        offsets = [0, 0, 0, 1, 1, 1, 3, 3, 3, 4, 4, 4]
        for k in range(1, 5):
            for i, off in enumerate(offsets):
                assert geometric_genus(new_triple(2, 6, 12 * k + i)) == 6 * k + off

    def test_table_2_7(self):
        # p_g(2, 7, 14k + i) for i = 0..13, k >= 1
        offsets = [0, 0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 5, 6, 6]
        for k in range(1, 5):
            for i, off in enumerate(offsets):
                assert geometric_genus(new_triple(2, 7, 14 * k + i)) == 9 * k + off

    def test_agrees_with_brute_force(self):
        for t in all_triples(9):
            assert geometric_genus(t) == brute_force_pg(t)

    def test_agrees_with_lattice_loop_oracle(self):
        for t in all_triples(20):
            assert geometric_genus(t) == geometric_genus_oracle(t)

    def test_golden_large_triple(self):
        # value of the direct t0/t1 lattice loop
        assert geometric_genus(new_triple(500, 700, 900)) == 52145700

    def test_monotone_in_c(self):
        for a in range(2, 6):
            for b in range(a, 8):
                values = [geometric_genus(new_triple(a, b, c)) for c in range(b, 25)]
                assert all(x <= y for x, y in zip(values, values[1:]))


class TestQOfM:
    def test_known_values(self):
        assert q_of_m(new_triple(2, 3, 7)) == 1
        assert q_of_m(new_triple(2, 4, 5)) == 0
        assert q_of_m(new_triple(3, 4, 7)) == 2
        assert q_of_m(new_triple(2, 6, 10)) == 2

    def test_pg_ideal_case_reaches_pg(self):
        # for a = 2, b in {2, 3} the tail vanishes and q(m) = p_g
        for c in range(3, 20):
            t = new_triple(2, 3, c)
            assert q_of_m(t) == geometric_genus(t)

    def test_tail_matches_termwise_sum(self):
        for t in all_triples(14):
            pg = geometric_genus(t)
            assert pg - q_of_m(t) == sum(q_sequence(t, pg).v[1:])


class TestPgLowerBound:
    def test_holds_everywhere(self):
        for t in all_triples(14):
            pg = geometric_genus(t)
            assert pg_bound_holds(pg, q_sequence(t, pg))

    def test_weak_form(self):
        from brieskorn.filtration import normal_reduction_number

        for t in all_triples(14):
            assert geometric_genus(t) >= comb(normal_reduction_number(t), 2)
