"""Formula-vs-oracle verification suites over a triple range.

Each suite scans all triples 2 <= a <= b <= c <= bound, checks one of the
package's cross-validation properties, and reports a check count plus any
counterexamples.  Where a triple's checks can raise InternalCheckError, the
error is recorded as a failure of that triple, so the suite still reports.
Each counted check records at most one failure, and an error ends the
triple's checks, so a suite never reports more failures than checks.  This
is the engine behind `brieskorn verify`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb

from . import classify, filtration, genus, resolution, ring
from .errors import InternalCheckError


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _triples(bound: int):
    for a in range(2, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                yield ring.BrieskornTriple(a, b, c)


@contextmanager
def _recorded(result: SuiteResult, t: ring.BrieskornTriple):
    """Record an InternalCheckError raised while checking t as a failure of t."""
    try:
        yield
    except InternalCheckError as exc:
        detail = str(exc)
        result.failures.append(detail if detail.startswith(str(t)) else f"{t}: {detail}")


def suite_nr_formula(bound: int) -> SuiteResult:
    """nr(m) closed form vs the staircase scan (which also certifies br = nr)."""
    result = SuiteResult("nr-formula-vs-staircase")
    for t in _triples(bound):
        result.checks += 1
        with _recorded(result, t):
            expected = filtration.normal_reduction_number(t)
            scanned = filtration.nr_by_staircase_oracle(t)
            if scanned != expected:
                result.failures.append(f"{t}: scan {scanned} != formula {expected}")
    return result


def suite_membership_oracle(bound: int) -> SuiteResult:
    """Staircase thresholds vs the a-th-power expansion, plus the socle lemma.

    Membership in closure(m^n) at level k is a threshold test in i + j on both
    sides, with both thresholds in 0..n, so comparing e_k with the expansion's
    least admissible degree is the same check as comparing the two tests at
    every total degree i + j = 0..n.
    """
    result = SuiteResult("power-membership-oracle")
    for t in _triples(bound):
        top = t.n_seq[t.a - 1] + 2
        for n in range(1, top + 1):
            ideal = ring.closure_of_m_power(t, n)
            for k in range(t.a):
                # socle lemma: x^k lies in closure(m^n) iff n <= n_k
                socle = ring.contains(ideal, ring.Monomial(k, 0, 0))
                if socle != (n <= t.n_seq[k]):
                    result.failures.append(f"{t}: socle test fails at k={k}, n={n}")
                e = ideal.thresholds[k]
                degree = ring.power_membership_degree(t, k, n)
                if e != degree:
                    result.failures.append(
                        f"{t}: e_{k} = {e} != expansion degree {degree} at k={k}, n={n}"
                    )
            result.checks += 2 * t.a
    return result


def suite_q_recursion(bound: int) -> SuiteResult:
    """q_sequence vs the per-n q_value and the colength oracle for v_n, q(m), a = 2.

    q_sequence itself re-checks the recursion 2 q_n + v_n = q_{n+1} + q_{n-1}.
    """
    result = SuiteResult("q-recursion")
    for t in _triples(bound):
        result.checks += 1
        with _recorded(result, t):
            pg = genus.geometric_genus(t)
            seq = filtration.q_sequence(t, pg)
            q_m = genus.q_of_m(t)
            if seq.q[1] != q_m:
                result.failures.append(f"{t}: q_1 = {seq.q[1]} != q(m) formula {q_m}")
            for n, v in enumerate(seq.v):
                result.checks += 1
                oracle = filtration.colength_drop_oracle(t, n)
                if v != oracle:
                    result.failures.append(f"{t}: v_{n} = {v} != colength drop {oracle}")
            for n, q in enumerate(seq.q):
                result.checks += 1
                expected = filtration.q_value(t, pg, n)
                if q != expected:
                    result.failures.append(f"{t}: q({n}m) = {q} != q_value {expected}")
            if t.a == 2:
                r = t.b // 2
                for i in range(1, seq.nr + 2):
                    result.checks += 1
                    expected = pg - i * (r - 1) + comb(i, 2) if i <= r - 1 else pg - comb(r, 2)
                    if seq.q[i] != expected:
                        result.failures.append(f"{t}: q({i}m) = {seq.q[i]} != {expected}")
    return result


def suite_hilbert(bound: int) -> SuiteResult:
    """Two checks: the quadratic fit (it raises unless e0_bar = a and a fourth point
    fits) and the closed form of q_sequence against it; for a = 2, a third, r = b // 2.
    """
    result = SuiteResult("hilbert-coefficients")
    for t in _triples(bound):
        result.checks += 2
        with _recorded(result, t):
            fit = filtration.normal_hilbert_coefficients(t)
            closed = filtration.q_sequence(t, genus.geometric_genus(t)).hilbert
            if closed != fit:
                result.failures.append(f"{t}: closed form {closed} != fit {fit}")
            if t.a == 2:
                result.checks += 1
                r = t.b // 2
                if closed != (2, r, comb(r, 2)):
                    result.failures.append(f"{t}: a=2 coefficients {closed}")
    return result


def suite_fundamental_genus(bound: int) -> SuiteResult:
    """Closed-form Z vs Laufer's computation sequence on every triple; where the
    p_f formula applies, two more checks: closed-form p_f vs adjunction on Z,
    and the -Z^2 formula.
    """
    result = SuiteResult("fundamental-genus")
    for t in _triples(bound):
        result.checks += 1
        with _recorded(result, t):
            sd = resolution.seifert_data(t)
            graph = resolution.build_dual_graph(sd)
            z = resolution.fundamental_cycle(graph)
            laufer = resolution.laufer_cycle(graph)
            for i, (x, y) in enumerate(zip(z.coefficients, laufer.coefficients)):
                if x != y:
                    result.failures.append(
                        f"{t}: closed-form Z has {x} at vertex {i}, Laufer's sequence {y}"
                    )
                    break
            if sd.lam[2] > sd.alpha[0] * sd.alpha[1] * sd.alpha[2]:
                continue
            result.checks += 1
            by_formula = resolution.fundamental_genus_formula(t)
            by_adjunction = resolution.fundamental_genus_oracle(graph)
            if by_formula != by_adjunction:
                result.failures.append(f"{t}: formula {by_formula} vs adjunction {by_adjunction}")
            result.checks += 1
            minus_z2 = -resolution.cycle_self_intersection(graph, z)
            if minus_z2 != resolution.expected_minus_z_squared(t):
                result.failures.append(f"{t}: -Z^2 = {minus_z2}")
    return result


def suite_negative_definite(bound: int) -> SuiteResult:
    """Leaf-to-center elimination on every constructed dual graph.

    The graph is a tree, so the exact elimination costs O(V) per triple and
    covers every triple up to the bound.  The dense Bareiss minor test
    (`resolution.is_negative_definite`) is its oracle in the tests.
    """
    result = SuiteResult("negative-definiteness")
    for t in _triples(bound):
        result.checks += 1
        with _recorded(result, t):
            if not resolution.is_negative_definite_tree(resolution.dual_graph(t)):
                result.failures.append(f"{t}: intersection matrix not negative definite")
    return result


def suite_classification(bound: int) -> SuiteResult:
    """Two-path elliptic and boundary classification; elliptic implies nr <= 2.

    classify.invariants raises InternalCheckError when a pair of paths disagrees.
    """
    result = SuiteResult("classification")
    for t in _triples(bound):
        result.checks += 1
        with _recorded(result, t):
            inv = classify.invariants(t)
            if inv.elliptic and inv.seq.nr > 2:
                result.failures.append(f"{t}: elliptic but nr(m) > 2")
    return result


def suite_certificates(bound: int) -> SuiteResult:
    """nr(J) >= 3 certificates for the two families of the br = 2 analysis."""
    result = SuiteResult("nr3-certificates")
    families = [(2, 5, 10), (3, 4, 8)]
    for a, b, c_min in families:
        if b > bound:
            continue
        for c in range(c_min, bound + 1):
            result.checks += 1
            t = ring.BrieskornTriple(a, b, c)
            with _recorded(result, t):
                if not classify.verify_nr3_certificate(t):
                    result.failures.append(f"{t}: certificate failed")
                elif classify.invariants(t).nr_A[0] != "lower_bound":
                    result.failures.append(f"{t}: certificate contradicts exact nr(A)")
    return result


def suite_pg_bound(bound: int) -> SuiteResult:
    """floor_sum p_g vs the direct lattice loop, and p_g >= C(nr(m), 2) + q(nr(m) * m)."""
    result = SuiteResult("pg-lower-bound")
    for t in _triples(bound):
        result.checks += 2
        with _recorded(result, t):
            pg = genus.geometric_genus(t)
            oracle = genus.geometric_genus_oracle(t)
            if pg != oracle:
                result.failures.append(f"{t}: p_g = {pg} != lattice loop {oracle}")
            if not genus.pg_bound_holds(pg, filtration.q_sequence(t, pg)):
                result.failures.append(f"{t}: p_g bound violated")
    return result


def run_all(bound: int) -> list[SuiteResult]:
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    return [
        suite_nr_formula(bound),
        suite_membership_oracle(bound),
        suite_q_recursion(bound),
        suite_hilbert(bound),
        suite_fundamental_genus(bound),
        suite_negative_definite(bound),
        suite_classification(bound),
        suite_certificates(bound),
        suite_pg_bound(bound),
    ]
