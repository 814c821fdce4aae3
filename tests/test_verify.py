"""The oracles that run only in verify still catch a wrong hot-path value."""

from dataclasses import replace

from brieskorn import filtration, genus, resolution, ring
from brieskorn.verify import (
    run_all,
    suite_fundamental_genus,
    suite_hilbert,
    suite_membership_oracle,
    suite_negative_definite,
    suite_pg_bound,
    suite_q_recursion,
)


def test_q_recursion_suite_catches_a_wrong_colength_drop(monkeypatch):
    exact = filtration.colength_drop

    def off_at_zero(t, n):
        # v_0 never enters q(n), so only the colength oracle can see this
        return exact(t, n) + (n == 0)

    monkeypatch.setattr(filtration, "colength_drop", off_at_zero)
    result = suite_q_recursion(5)
    assert not result.passed
    assert all("v_0" in failure and "colength drop" in failure for failure in result.failures)


def test_hilbert_suite_catches_a_wrong_closed_form(monkeypatch):
    exact = filtration.q_sequence
    target = ring.BrieskornTriple(4, 6, 9)

    def off_once(t, pg):
        seq = exact(t, pg)
        if t != target:
            return seq
        e0, e1, e2 = seq.hilbert
        return replace(seq, hilbert=(e0, e1, e2 + 1))

    monkeypatch.setattr(filtration, "q_sequence", off_once)
    result = suite_hilbert(9)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))
    assert "fit" in result.failures[0]


def test_pg_bound_suite_catches_a_wrong_geometric_genus(monkeypatch):
    exact = genus.geometric_genus
    monkeypatch.setattr(genus, "geometric_genus", lambda t: exact(t) + 1)
    result = suite_pg_bound(5)
    assert not result.passed
    assert all("lattice loop" in failure for failure in result.failures)


def test_membership_suite_catches_one_wrong_threshold(monkeypatch):
    exact = ring.closure_of_m_power
    target, k, n = ring.BrieskornTriple(3, 4, 7), 0, 2

    def off_once(t, power):
        # e_0 = 2 here, so x^0 stays outside the ideal and the socle test is blind
        ideal = exact(t, power)
        if (t, power) != (target, n):
            return ideal
        e = list(ideal.thresholds)
        e[k] += 1
        return ring.StaircaseIdeal(t, tuple(e))

    monkeypatch.setattr(ring, "closure_of_m_power", off_once)
    result = suite_membership_oracle(7)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))
    assert f"k={k}, n={n}" in result.failures[0]


def test_membership_suite_catches_a_wrong_expansion_degree(monkeypatch):
    exact = ring.power_membership_degree
    monkeypatch.setattr(
        ring, "power_membership_degree", lambda t, k, n: exact(t, k, n) + (k >= 1)
    )
    result = suite_membership_oracle(5)
    assert not result.passed
    assert all("expansion degree" in failure for failure in result.failures)


def test_fundamental_genus_suite_catches_a_non_minimal_cycle(monkeypatch):
    exact = resolution.fundamental_cycle
    target = ring.BrieskornTriple(10, 12, 15)
    doubled = resolution.dual_graph(target)

    def twice_once(g):
        # 2 Z_min is anti-nef too, and the p_f formula does not apply to the
        # target, so only Laufer's sequence can see this
        z = exact(g)
        return resolution.Cycle(tuple(2 * c for c in z.coefficients)) if g == doubled else z

    monkeypatch.setattr(resolution, "fundamental_cycle", twice_once)
    result = suite_fundamental_genus(15)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))
    assert "Laufer" in result.failures[0]


def test_negative_definite_suite_checks_past_exponent_12(monkeypatch):
    exact = resolution.is_negative_definite_tree
    target = ring.BrieskornTriple(13, 14, 15)
    rejected = resolution.dual_graph(target)
    monkeypatch.setattr(
        resolution, "is_negative_definite_tree", lambda g: g != rejected and exact(g)
    )
    result = suite_negative_definite(15)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))


def test_failures_never_outnumber_checks(monkeypatch):
    exact = resolution.fundamental_cycle
    monkeypatch.setattr(
        resolution,
        "fundamental_cycle",
        lambda g: resolution.Cycle(tuple(2 * c for c in exact(g).coefficients)),
    )
    results = run_all(12)
    assert not all(result.passed for result in results)
    for result in results:
        assert len(result.failures) <= result.checks, result.name
