"""Formula-vs-oracle verification suites, run in one walk over a triple range.

The walk visits each pair 2 <= a <= b <= bound, then each triple (a, b, c)
with b <= c <= bound.  Each suite is a pair check, a triple check, or both.
A pair check compares the c-free data of ring.BrieskornPair with its oracles,
once per pair, and hands what it returns to the suite's triple checks: the
membership pair check runs the socle lemma on the staircases closure(m^n) and
compares their thresholds with the a-th-power expansion of (a, b, b), and its
triple check compares each triple's expansion degrees, the one side that reads
c, with that triple's.  The four staircase pair checks (the nr scan, the
colength drops, the membership thresholds and the Hilbert fit) index the pair's
one ladder ring.BrieskornPair.staircases, so each closure(m^n) is built once per
pair.  Each triple gets one p_g and one invariants record built from it, each
on first use, for every suite that reads it; the q(m) formula reads that p_g.
The record's adjunction p_f and both graph suites read the star the triple
keeps and the Z that star keeps (resolution.dual_graph, fundamental_cycle), and
no suite expands the star.  The fundamental-genus suite hands that Z to
Laufer's sequence, run on the star from a proved lower bound that never reads
Z, as its step bound, and to the adjunction p_f and Z^2.  run_all walks once
with all nine suites; each suite_* walks with its own alone.

An InternalCheckError is recorded as a failure of its pair or triple, so the
suite still reports.  Builds are deterministic and nothing that fails is kept,
so a p_g, record, star or Z that fails to build raises again, and fails once,
in each suite that reads it.  Each counted check records at most one failure,
and an error ends the suite's checks of that triple, or of that pair and its
triples, so a suite never reports more failures than checks.  This is the
engine behind `brieskorn verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb

from . import classify, filtration, genus, resolution, ring
from .errors import FormulaInapplicableError, InternalCheckError


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


_FAILED = object()


def _recorded(result: SuiteResult, subject, check, *args):
    """check(subject, result, *args), or _FAILED after recording its InternalCheckError."""
    try:
        return check(subject, result, *args)
    except InternalCheckError as exc:
        msg = str(exc)
        result.failures.append(msg if msg.startswith(str(subject)) else f"{subject}: {msg}")
        return _FAILED


def _shared(t: ring.BrieskornTriple, built: dict, name: str):
    """t's "pg" or "record" (built from that p_g), built once into built."""
    if name not in built:
        if name == "pg":
            built[name] = genus.geometric_genus(t)
        else:
            built[name] = classify.invariants_from_pg(t, _shared(t, built, "pg"))
    return built[name]


def _nr_formula(p: ring.BrieskornPair, result: SuiteResult) -> None:
    """nr(m) closed form vs the staircase scan (which also certifies br = nr)."""
    result.checks += 1
    scanned = filtration.nr_by_staircase_oracle(p)
    if scanned != p.nr:
        result.failures.append(f"{p}: scan {scanned} != formula {p.nr}")


def _membership_pair(p: ring.BrieskornPair, result: SuiteResult) -> tuple[int, ...]:
    """The socle lemma on closure(m^n), n = 1..nr + 2, and its thresholds vs the a-th
    power expansion of (a, b, b); returns that triple's expansion degrees.  Both
    membership tests are thresholds in i + j, so this compares them at every i + j,
    as whole sequences over k; only a mismatch walks k to name each failing level."""
    least = p.triple(p.b)
    socle = [ring.Monomial(k, 0, 0) for k in range(p.a)]
    for n in range(1, p.nr + 3):
        ideal = p.staircases[n]
        # x^k lies in closure(m^n) iff n <= n_k
        lemma = [n <= nk for nk in p.n_seq]
        members = [ring.contains(ideal, x) for x in socle]
        degrees = [ring.power_membership_degree(least, k, n) for k in range(p.a)]
        if members != lemma or list(ideal.thresholds) != degrees:
            for k, e in enumerate(ideal.thresholds):
                if members[k] != lemma[k]:
                    result.failures.append(f"{p}: socle test fails at k={k}, n={n}")
                if e != degrees[k]:
                    result.failures.append(
                        f"{p}: e_{k} = {e} != expansion degree {degrees[k]} at k={k}, n={n}"
                    )
        result.checks += 2 * p.a
    return least.expansion_min_degrees


def _membership(t: ring.BrieskornTriple, result: SuiteResult, shared, degrees) -> None:
    """The expansion degrees, the one side that reads c, vs those of (a, b, b)."""
    result.checks += 1
    if t.expansion_min_degrees != degrees:
        result.failures.append(f"{t}: expansion degrees {t.expansion_min_degrees} != {degrees}")


def _q_pair(p: ring.BrieskornPair, result: SuiteResult) -> tuple[list[int], int]:
    """v_n vs the colength oracle; returns S(n) summed term by term, and the tail sum
    of the q(m) formula."""
    for n, v in enumerate(p.v):
        result.checks += 1
        oracle = filtration.colength_drop_oracle(p, n)
        if v != oracle:
            result.failures.append(f"{p}: v_{n} = {v} != colength drop {oracle}")
    return [filtration.drop_sum(p, n) for n in range(p.nr + 2)], genus.q_of_m_tail(p)


def _q_triple(t: ring.BrieskornTriple, result: SuiteResult, shared, handed) -> None:
    """q_1 vs the q(m) formula on the shared p_g, q_n vs p_g - S(n), and the a = 2
    closed form."""
    drop_sums, tail = handed
    result.checks += 1
    inv = shared("record")
    pg = shared("pg")
    q_m = pg - tail
    if inv.q[1] != q_m:
        result.failures.append(f"{t}: q_1 = {inv.q[1]} != q(m) formula {q_m}")
    for n, q in enumerate(inv.q):
        result.checks += 1
        expected = pg - drop_sums[n]
        if q != expected:
            result.failures.append(f"{t}: q({n}m) = {q} != p_g - S({n}) = {expected}")
    if t.a == 2:
        r = t.b // 2
        for i in range(1, t.pair.nr + 2):
            result.checks += 1
            expected = pg - i * (r - 1) + comb(i, 2) if i <= r - 1 else pg - comb(r, 2)
            if inv.q[i] != expected:
                result.failures.append(f"{t}: q({i}m) = {inv.q[i]} != {expected}")


def _hilbert(p: ring.BrieskornPair, result: SuiteResult) -> None:
    """Two checks: the quadratic fit (it raises unless e0_bar = a and a fourth point
    fits) and the closed form against it; for a = 2, a third, r = b // 2."""
    result.checks += 2
    fit = filtration.normal_hilbert_coefficients(p)
    if p.hilbert != fit:
        result.failures.append(f"{p}: closed form {p.hilbert} != fit {fit}")
    if p.a == 2:
        result.checks += 1
        r = p.b // 2
        if p.hilbert != (2, r, comb(r, 2)):
            result.failures.append(f"{p}: a=2 coefficients {p.hilbert}")


def _fundamental_genus(t: ring.BrieskornTriple, result: SuiteResult, shared, _) -> None:
    """Closed-form Z vs Laufer's computation sequence, which Z bounds; where the p_f
    formula applies, two more checks on that Z: closed-form p_f vs adjunction, and the
    -Z^2 formula."""
    result.checks += 1
    graph = resolution.dual_graph(t)
    z = resolution.fundamental_cycle(graph)
    laufer = resolution.laufer_cycle(graph, z)
    if laufer != z:
        i = next(i for i, x in enumerate(z.coefficients) if x != laufer.coefficients[i])
        result.failures.append(
            f"{t}: closed-form Z has {z.coefficients[i]} at vertex {i}, "
            f"Laufer's sequence {laufer.coefficients[i]}"
        )
    try:
        by_formula = resolution.fundamental_genus_formula(t)
    except FormulaInapplicableError:
        return
    result.checks += 1
    by_adjunction, z2 = resolution.arithmetic_genus(graph, z)
    if by_formula != by_adjunction:
        result.failures.append(f"{t}: formula {by_formula} vs adjunction {by_adjunction}")
    result.checks += 1
    if -z2 != resolution.expected_minus_z_squared(t):
        result.failures.append(f"{t}: -Z^2 = {-z2}")


def _negative_definite(t: ring.BrieskornTriple, result: SuiteResult, shared, _) -> None:
    """Tip-to-center elimination on the star, once per chain kind; Bareiss is its
    oracle in tests/test_resolution.py."""
    result.checks += 1
    if not resolution.is_negative_definite_tree(resolution.dual_graph(t)):
        result.failures.append(f"{t}: intersection matrix not negative definite")


def _classification(t: ring.BrieskornTriple, result: SuiteResult, shared, _) -> None:
    """Two-path elliptic and boundary classification (the record raises when a pair of
    paths disagrees); elliptic implies nr <= 2."""
    result.checks += 1
    inv = shared("record")
    if inv.elliptic and t.pair.nr > 2:
        result.failures.append(f"{t}: elliptic but nr(m) > 2")


def _certificates(t: ring.BrieskornTriple, result: SuiteResult, shared, _) -> None:
    """nr(J) >= 3 certificates on the br = 2 families of classify.CERTIFICATE_FAMILIES."""
    if t.c < classify.CERTIFICATE_FAMILIES.get((t.a, t.b), t.c + 1):
        return
    result.checks += 1
    if not classify.verify_nr3_certificate(t):
        result.failures.append(f"{t}: certificate failed")
    elif shared("record").nr_A[0] != "lower_bound":
        result.failures.append(f"{t}: certificate contradicts exact nr(A)")


def _pg_bound(t: ring.BrieskornTriple, result: SuiteResult, shared, _) -> None:
    """floor_sum p_g vs the direct lattice loop; only where they agree, a second
    check, read from the record: p_g >= C(nr, 2) + q(nr * m)."""
    result.checks += 1
    pg = shared("pg")
    oracle = genus.geometric_genus_oracle(t)
    if pg != oracle:
        result.failures.append(f"{t}: p_g = {pg} != lattice loop {oracle}")
        return
    result.checks += 1
    if not shared("record").pg_bound_holds:
        result.failures.append(f"{t}: p_g bound violated")


# name: (pair check, triple check), in run_all order
_SUITES = {
    "nr-formula-vs-staircase": (_nr_formula, None),
    "power-membership-oracle": (_membership_pair, _membership),
    "q-recursion": (_q_pair, _q_triple),
    "hilbert-coefficients": (_hilbert, None),
    "fundamental-genus": (None, _fundamental_genus),
    "negative-definiteness": (None, _negative_definite),
    "classification": (None, _classification),
    "nr3-certificates": (None, _certificates),
    "pg-lower-bound": (None, _pg_bound),
}


def _walk(bound: int, names) -> list[SuiteResult]:
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    results = [SuiteResult(name) for name in names]
    checks = [_SUITES[name] for name in names]
    for a in range(2, bound + 1):
        for b in range(a, bound + 1):
            p = ring.BrieskornPair(a, b)
            handed = [
                pair_check and _recorded(result, p, pair_check)
                for result, (pair_check, _) in zip(results, checks)
            ]
            for c in range(b, bound + 1):
                t = p.triple(c)
                shared = partial(_shared, t, {})  # no closure, so no cycle to outlive t
                for result, (_, triple_check), data in zip(results, checks, handed):
                    if triple_check and data is not _FAILED:
                        _recorded(result, t, triple_check, shared, data)
    return results


def _alone(name: str, bound: int) -> SuiteResult:
    return _walk(bound, [name])[0]


suite_nr_formula = partial(_alone, "nr-formula-vs-staircase")
suite_membership_oracle = partial(_alone, "power-membership-oracle")
suite_q_recursion = partial(_alone, "q-recursion")
suite_hilbert = partial(_alone, "hilbert-coefficients")
suite_fundamental_genus = partial(_alone, "fundamental-genus")
suite_negative_definite = partial(_alone, "negative-definiteness")
suite_classification = partial(_alone, "classification")
suite_certificates = partial(_alone, "nr3-certificates")
suite_pg_bound = partial(_alone, "pg-lower-bound")


def run_all(bound: int) -> list[SuiteResult]:
    """Every suite in one walk up to bound."""
    return _walk(bound, _SUITES)
