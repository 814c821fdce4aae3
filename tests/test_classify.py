from dataclasses import fields

import pytest
from triples import triples

from brieskorn.classify import Invariants, boundary_family_nr, invariants, verify_nr3_certificate
from brieskorn.genus import geometric_genus
from brieskorn.ring import new_triple


def test_record_keeps_only_what_reads_c():
    # nr(m), v_n and the Hilbert coefficients live on t.pair alone
    names = {f.name for f in fields(Invariants)}
    assert "q" in names and not {"seq", "nr", "v", "hilbert"} & names


class TestRational:
    def test_exact_list_up_to_30(self):
        rational = {(t.a, t.b, t.c) for t in triples(30) if invariants(t).rational}
        expected = {(2, 2, c) for c in range(2, 31)} | {(2, 3, c) for c in (3, 4, 5)}
        assert rational == expected

    def test_rational_iff_nr_one(self):
        for t in triples(25):
            rational = t.pair.nr == 1 and geometric_genus(t) == 0
            assert invariants(t).rational == rational


class TestElliptic:
    def test_two_paths_agree(self, walk_failures):
        # the record raises when its p_f path and the elliptic list disagree
        assert not walk_failures("classification", "elliptic list says")

    def test_members_and_nonmembers(self):
        assert invariants(new_triple(2, 3, 7)).elliptic
        assert invariants(new_triple(2, 4, 100)).elliptic
        assert invariants(new_triple(3, 3, 50)).elliptic
        assert invariants(new_triple(2, 5, 9)).elliptic
        assert not invariants(new_triple(2, 5, 10)).elliptic
        assert not invariants(new_triple(2, 3, 5)).elliptic
        assert not invariants(new_triple(3, 4, 6)).elliptic

    def test_elliptic_implies_small_nr(self):
        for t in triples(30):
            if invariants(t).elliptic:
                assert t.pair.nr <= 2


class TestBoundary:
    def test_examples(self):
        assert invariants(new_triple(2, 2, 9)).boundary
        assert invariants(new_triple(2, 4, 7)).boundary
        assert invariants(new_triple(2, 6, 8)).boundary
        assert invariants(new_triple(3, 5, 6)).boundary
        assert not invariants(new_triple(2, 4, 8)).boundary
        assert not invariants(new_triple(3, 4, 7)).boundary
        assert not invariants(new_triple(3, 7, 7)).boundary

    def test_count_matches_list(self, walk_failures):
        # the record raises when the p_g count and the boundary list disagree
        assert not walk_failures("classification", "boundary list says")

    def test_family_nr_values(self):
        assert boundary_family_nr(new_triple(2, 2, 7)) == 1
        assert boundary_family_nr(new_triple(2, 8, 10)) == 4
        assert boundary_family_nr(new_triple(2, 9, 10)) == 4
        assert boundary_family_nr(new_triple(3, 5, 5)) == 3
        assert boundary_family_nr(new_triple(3, 8, 8)) is None


class TestReesNormal:
    def test_iff_b_close_to_a(self):
        # floor((a-1)b/a) = a-1 exactly when a <= b < a + a/(a-1), i.e. b in {a, a+1}
        for t in triples(20):
            assert invariants(t).rees_normal == (t.b in (t.a, t.a + 1))

    def test_examples(self):
        assert invariants(new_triple(3, 4, 7)).rees_normal
        assert invariants(new_triple(5, 6, 9)).rees_normal
        assert not invariants(new_triple(3, 5, 7)).rees_normal


class TestPgIdeal:
    def test_only_small_b_with_a_two(self):
        for t in triples(15):
            assert invariants(t).pg_ideal_m == (t.a == 2 and t.b <= 3)


class TestInferNrA:
    def test_boundary_gives_exact(self):
        status, value = invariants(new_triple(2, 8, 10)).nr_A
        assert (status, value) == ("exact", 4)

    def test_small_pg_gives_exact(self):
        # pg(2,4,9) = 2 < C(3, 2) = 3, so nr(A) = nr(m) = 2
        status, value = invariants(new_triple(2, 4, 9)).nr_A
        assert (status, value) == ("exact", 2)

    def test_large_pg_gives_lower_bound(self):
        status, value = invariants(new_triple(2, 5, 10)).nr_A
        assert status == "lower_bound"
        assert value == new_triple(2, 5, 10).pair.nr

    def test_exact_values_never_below_nr_m(self):
        for t in triples(20):
            status, value = invariants(t).nr_A
            assert value >= t.pair.nr
            assert status in ("exact", "lower_bound")


class TestCertificates:
    def test_family_25(self):
        for c in range(10, 31):
            assert verify_nr3_certificate(new_triple(2, 5, c))

    def test_family_34(self):
        for c in range(8, 31):
            assert verify_nr3_certificate(new_triple(3, 4, c))

    def test_outside_families_rejected(self):
        with pytest.raises(ValueError):
            verify_nr3_certificate(new_triple(2, 5, 9))
        with pytest.raises(ValueError):
            verify_nr3_certificate(new_triple(3, 4, 7))
        with pytest.raises(ValueError):
            verify_nr3_certificate(new_triple(2, 6, 12))

    def test_certificate_families_report_lower_bound(self):
        # the certificate shows nr(A) >= 3 > nr(m) = 2, so "exact" would be wrong
        for t in (new_triple(2, 5, 12), new_triple(3, 4, 9)):
            assert invariants(t).nr_A[0] == "lower_bound"
