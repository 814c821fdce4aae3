from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from test_resolution import exact_inverse, intersection_matrix
from triples import off_golden, triples

from brieskorn import genus
from brieskorn.classify import invariants
from brieskorn.cli import main
from brieskorn.errors import InternalCheckError
from brieskorn.genus import geometric_genus, geometric_genus_oracle
from brieskorn.resolution import dual_graph
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


def euclid_ladder_pg(t: BrieskornTriple) -> int:
    """The same count in O(a log b): for each t0, the points with c*t1 + b*t2 <= s,
    s = floor(r0/a), as a floor sum over t1, whose Euclid-style recurrence steps down
    one ladder on (b, c) that does not read the offset or the count."""
    a, b, c = t
    ladder, m, x = [], b, c
    while m:
        ladder.append((m, x % m, x // m))
        m, x = x % m, m
    total = 0
    for r0 in range(t.a_invariant, -1, -t.q0):  # r0 = bound - q0*t0; empty if bound < 0
        # #{(t1, t2) >= 0 : c*t1 + b*t2 <= s}, as floor(r0/(ab)) = floor(floor(r0/a)/b):
        # the sum over t1 < n of floor((s - c*t1)/b) + 1, with t1 -> n - 1 - t1
        s = r0 // a
        n, y = s // c + 1, s % c
        total += n
        for m, r, q in ladder:  # sum_{i<n} floor((x*i + y)/m), x = q*m + r
            qy = y // m
            total += q * (n * (n - 1) // 2) + qy * n
            y += r * n - qy * m
            if y < m:
                break
            n = y // m
            y -= n * m
    return total


def laufer_terms(t: BrieskornTriple) -> tuple[int, int, Fraction]:
    """(mu, chi(E), K^2) of Laufer's 1 + mu = chi(E) + K^2 + 12 p_g, with K solved on the
    expanded star from K.E_v = -E_v^2 - 2 + 2 g_v by the exact inverse of its matrix."""
    g = dual_graph(t)
    adjunction = [-w - 2 + 2 * genus_v for w, genus_v in g.vertices]
    inverse = exact_inverse(intersection_matrix(g))
    k = [sum(x * y for x, y in zip(row, adjunction)) for row in inverse]
    edges = sum(map(len, g.neighbors)) // 2
    chi = sum(2 - 2 * genus_v for _, genus_v in g.vertices) - edges
    return (t.a - 1) * (t.b - 1) * (t.c - 1), chi, sum(x * y for x, y in zip(k, adjunction))


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

    @pytest.mark.parametrize(
        "triple, pg",
        [
            ((99991, 99997, 100003), 166644167066678),
            ((9973, 9990, 9999), 165959044868),
            ((2, 99999, 100000), 1249925001),
            ((840, 840, 840), 98431480),
        ],
    )
    def test_golden_values_of_the_euclid_ladder(self, triple, pg):
        assert geometric_genus(new_triple(*triple)) == pg

    def test_the_euclid_ladder_is_the_lattice_count(self):
        assert [t for t in triples(20) if euclid_ladder_pg(t) != geometric_genus_oracle(t)] == []

    @settings(deadline=None)
    @given(st.data())
    def test_agrees_with_the_euclid_ladder_up_to_ten_thousand(self, data):
        # a factor shared by a drawn subset of the exponents, so that the chains of
        # the star have copies and the pairwise gcds vary; the ladder costs O(a log b)
        factor = data.draw(st.integers(1, 100))
        shared = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
        exponents = [
            factor * data.draw(st.integers(1, 10**4 // factor)) if s
            else data.draw(st.integers(2, 10**4))
            for s in shared
        ]
        if min(exponents) < 2:
            return
        t = BrieskornTriple(*sorted(exponents))
        assert geometric_genus(t) == euclid_ladder_pg(t)

    def test_laufer_identity_on_the_expanded_star(self):
        # the formula's derivation, term by term: K solved exactly on every vertex
        off = []
        for t in triples(12):
            mu, chi, k_squared = laufer_terms(t)
            if 1 + mu != chi + k_squared + 12 * geometric_genus(t):
                off.append(t)
        assert off == []

    def test_a_numerator_off_by_one_dedekind_sum_raises(self, monkeypatch, capsys):
        exact = genus.dedekind_sum_12k
        monkeypatch.setattr(genus, "dedekind_sum_12k", lambda h, k: exact(h, k) + 1)
        with pytest.raises(InternalCheckError, match="does not divide"):
            geometric_genus(new_triple(3, 4, 7))
        assert main(["invariants", "3", "4", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            "brieskorn: internal check failed: BrieskornTriple(a=3, b=4, c=7): "
        )

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
