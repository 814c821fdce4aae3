"""End-to-end acceptance gate: ten exact criteria, one reported line each.

Every check is exact integer arithmetic; there are no tolerances.  Each test
prints a single PASS/FAIL line so the gate can be read off the verbose run.
Criteria 1, 4, 6, 7 and 10 are verify suites: they read the session's one
run_all(40) walk (tests/conftest.py), whose per-suite check counts are pinned
below.  Criterion 2 checks every p_g table of tests/triples.py.
"""

from math import comb

from test_resolution import cycle_self_intersection
from triples import pg_table_failures, triples

from brieskorn.classify import (
    boundary_family_nr,
    in_elliptic_list,
    invariants,
    verify_nr3_certificate,
)
from brieskorn.genus import geometric_genus
from brieskorn.resolution import (
    dual_graph,
    fundamental_cycle,
    fundamental_genus,
    seifert_data,
)
from brieskorn.ring import new_triple

# a suite that quietly narrows changes its count
WALK_CHECKS = {
    "nr-formula-vs-staircase": 780,
    "power-membership-oracle": 683074,
    "q-recursion": 232168,
    "hilbert-coefficients": 1599,
    "fundamental-genus": 31876,
    "negative-definiteness": 10660,
    "classification": 10660,
    "nr3-certificates": 64,
    "pg-lower-bound": 21320,
}


def report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}" + (f" ({len(failures)} failures)" if failures else ""))
    assert not failures, failures[:5]


def test_criterion_01_nr_formula_vs_oracle(walk):
    # the staircase scan also certifies persistence of stabilization, i.e. br = nr
    failures = walk["nr-formula-vs-staircase"].failures
    report("criterion 1: nr staircase oracle = floor((a-1)b/a), br = nr, range <= 40", failures)


def test_criterion_02_pg_families_and_tables():
    report(
        "criterion 2: p_g families (2,3,6p+1), (2,4,4p+1) and the (2,6), (2,7) tables, k <= 4",
        pg_table_failures(),
    )


def test_criterion_03_golden_347():
    failures = []
    t = new_triple(3, 4, 7)
    if geometric_genus(t) != 3:
        failures.append("pg")
    if fundamental_genus(t) != 2:
        failures.append("pf")
    if t.pair.nr != 2:
        failures.append("nr")
    sd = seifert_data(t)
    if sd.genus != 0 or sd.center_weight != 2:
        failures.append("center")
    g = dual_graph(t)
    if len(g.vertices) != 8 or sorted(w for w, _ in g.vertices) != [-4] + [-2] * 7:
        failures.append("weights")
    if sorted(len(chain) * copies for _, chain, copies in g.branches) != [2, 2, 3]:
        failures.append("branch lengths")
    if cycle_self_intersection(g, fundamental_cycle(g)) != -2:
        failures.append("Z^2")
    report("criterion 3: (3,4,7) golden values (pg, pf, nr, dual graph, c0, Z^2)", failures)


def test_criterion_04_pf_formula_vs_laufer(walk):
    failures = walk["fundamental-genus"].failures
    report("criterion 4: Z = Laufer's, p_f = adjunction and -Z^2 formula, range <= 40", failures)


def test_criterion_05_elliptic_set_equality():
    computed = {(t.a, t.b, t.c) for t in triples(60) if fundamental_genus(t) == 1}
    listed = {(t.a, t.b, t.c) for t in triples(60) if in_elliptic_list(t)}
    failures = sorted(computed ^ listed)
    report("criterion 5: {p_f = 1} = elliptic family list, range <= 60", failures)


def test_criterion_06_hilbert_coefficients_a2(walk):
    failures = walk["hilbert-coefficients"].failures
    report("criterion 6: Hilbert formula = fit, (2, b//2, C(b//2, 2)) at a = 2, <= 40", failures)


def test_criterion_07_q_recursion(walk):
    failures = walk["q-recursion"].failures
    report("criterion 7: q_n = p_g - S(n), q_1 = q(m), a = 2 closed form, range <= 40", failures)


def test_criterion_08_boundary_set_equality():
    computed = {
        (t.a, t.b, t.c)
        for t in triples(60)
        if geometric_genus(t) == comb(t.pair.nr, 2)
    }
    # the family list keeps only the members that the lattice count confirms:
    # the a = 3 families with 3s + 1 >= 7 or 3s + 2 >= 8 gain an extra
    # monomial below the a-invariant and leave the boundary
    listed = {(t.a, t.b, t.c) for t in triples(60) if boundary_family_nr(t) is not None}
    failures = sorted(computed ^ listed)
    report("criterion 8: {p_g = C(nr, 2)} = boundary family list, range <= 60", failures)


def test_criterion_09_certificates():
    failures = []
    for a, b, c_min in ((2, 5, 10), (3, 4, 8)):
        for c in range(c_min, 31):
            t = new_triple(a, b, c)
            if not verify_nr3_certificate(t):
                failures.append(t)
            status, value = invariants(t).nr_A
            # certificate gives nr(A) >= 3; anything but an honest lower bound
            # at nr(m) = 2 would contradict it, and p_g must allow nr(A) = 3
            if status != "lower_bound" or value != 2 or geometric_genus(t) < comb(3, 2):
                failures.append((t, status, value))
    report("criterion 9: nr(A) >= 3 certificates for (2,5,c>=10) and (3,4,c>=8)", failures)


def test_criterion_10_pg_lower_bound(walk):
    failures = walk["pg-lower-bound"].failures
    report("criterion 10: p_g = lattice loop, p_g >= C(nr, 2) + q(nr * m), range <= 40", failures)


def test_walk_runs_every_suite_in_full(walk):
    assert {name: result.checks for name, result in walk.items()} == WALK_CHECKS
    failures = [failure for result in walk.values() for failure in result.failures]
    report("verify run_all(40): pinned check counts, every suite passes", failures)
