"""The oracles that run only in verify still catch a wrong hot-path value."""

from brieskorn import filtration, genus
from brieskorn.verify import suite_pg_bound, suite_q_recursion


def test_q_recursion_suite_catches_a_wrong_colength_drop(monkeypatch):
    exact = filtration.colength_drop

    def off_at_zero(t, n):
        # v_0 never enters q(n), so only the colength oracle can see this
        return exact(t, n) + (n == 0)

    monkeypatch.setattr(filtration, "colength_drop", off_at_zero)
    result = suite_q_recursion(5)
    assert not result.passed
    assert all("v_0" in failure and "colength drop" in failure for failure in result.failures)


def test_pg_bound_suite_catches_a_wrong_geometric_genus(monkeypatch):
    exact = genus.geometric_genus
    monkeypatch.setattr(genus, "geometric_genus", lambda t: exact(t) + 1)
    result = suite_pg_bound(5)
    assert not result.passed
    assert all("lattice loop" in failure for failure in result.failures)
