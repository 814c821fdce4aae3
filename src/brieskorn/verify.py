"""Formula-vs-oracle verification suites, run in one walk over a triple range.

The walk visits each pair 2 <= a <= b <= bound, and _row computes that pair's
row: each suite's checks and failures on the pair and on each triple (a, b, c)
with b <= c <= bound.  A pair check compares the c-free data of
ring.BrieskornPair with its oracles, once per pair, and hands what it returns
to the suite's triple checks.  A triple keeps its p_g, record and star, and a
star its Z, each built at most once for every suite; nothing that fails to
build is kept, so it fails once in each reader.  An InternalCheckError is
recorded as a failure and ends that suite's checks of the triple, or of the
pair and its triples, so a suite never reports more failures than checks.

No state crosses from one pair to the next, so run_all(bound, jobs) maps _row
over the pairs, in process or on jobs workers forked by _forked, and adds the
rows up in walk order.  Worker w takes the strided share pairs[w::jobs], which
balances the cost of small and large a, and sends each row through a pipe as
one marshal record, or the exception that ended its share; the parent reads
row i from worker i % jobs, so it raises the first exception in walk order, as
the in-process map does.  A worker that dies ends the walk at the first row it
owes, in an InternalCheckError naming it and its wait status; no worker
outlives the walk, and one whose parent is killed stops at its next pair.
Worker w also runs on its share of the parent's usable cores,
cores[w % len(cores)::jobs], as it takes its share of the pairs.  Left to the
scheduler, forked workers often stay on their parent's core for a short walk:
on a 2-core VM, verify 20 then took about 215 ms, against 118 ms placed.
Each suite_* walks in process with its suite alone.  This is the engine behind
`brieskorn verify`.
"""

from __future__ import annotations

import marshal
import os
from functools import partial
from math import comb

from . import classify, filtration, genus, resolution, ring
from .errors import FormulaInapplicableError, InternalCheckError


class SuiteResult:
    """One suite's name, its check count and its failure messages, in walk order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def __eq__(self, other) -> bool:
        return isinstance(other, SuiteResult) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"SuiteResult(name={self.name!r}, checks={self.checks}, failures={self.failures!r})"

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


def _membership(t: ring.BrieskornTriple, result: SuiteResult, degrees) -> None:
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


def _q_triple(t: ring.BrieskornTriple, result: SuiteResult, handed) -> None:
    """q_1 vs the q(m) formula on the triple's p_g, q_n vs p_g - S(n), and the a = 2
    closed form."""
    drop_sums, tail = handed
    result.checks += 1
    inv = classify.invariants(t)
    pg = genus.geometric_genus(t)
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


def _fundamental_genus(t: ring.BrieskornTriple, result: SuiteResult, _) -> None:
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


def _negative_definite(t: ring.BrieskornTriple, result: SuiteResult, _) -> None:
    """Tip-to-center elimination on the star, once per chain kind; Bareiss is its
    oracle in tests/test_resolution.py."""
    result.checks += 1
    if not resolution.is_negative_definite_tree(resolution.dual_graph(t)):
        result.failures.append(f"{t}: intersection matrix not negative definite")


def _classification(t: ring.BrieskornTriple, result: SuiteResult, _) -> None:
    """Two-path elliptic and boundary classification (the record raises when a pair of
    paths disagrees); elliptic implies nr <= 2."""
    result.checks += 1
    inv = classify.invariants(t)
    if inv.elliptic and t.pair.nr > 2:
        result.failures.append(f"{t}: elliptic but nr(m) > 2")


def _certificates(t: ring.BrieskornTriple, result: SuiteResult, _) -> None:
    """nr(J) >= 3 certificates on the br = 2 families of classify.CERTIFICATE_FAMILIES."""
    if t.c < classify.CERTIFICATE_FAMILIES.get((t.a, t.b), t.c + 1):
        return
    result.checks += 1
    if not classify.verify_nr3_certificate(t):
        result.failures.append(f"{t}: certificate failed")
    elif classify.invariants(t).nr_A[0] != "lower_bound":
        result.failures.append(f"{t}: certificate contradicts exact nr(A)")


def _pg_bound(t: ring.BrieskornTriple, result: SuiteResult, _) -> None:
    """p_g by Laufer's formula vs the direct lattice loop; only where they agree, a second
    check, read from the record: p_g >= C(nr, 2) + q(nr * m)."""
    result.checks += 1
    pg = genus.geometric_genus(t)
    oracle = genus.geometric_genus_oracle(t)
    if pg != oracle:
        result.failures.append(f"{t}: p_g = {pg} != lattice loop {oracle}")
        return
    result.checks += 1
    if not classify.invariants(t).pg_bound_holds:
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


def _row(bound: int, names, pair) -> tuple:
    """Pair (a, b)'s row, c running from b to bound: the checks of each suite named,
    then its failures, on that pair and its triples."""
    results = [SuiteResult(name) for name in names]
    checks = [_SUITES[name] for name in names]
    p = ring.BrieskornPair(*pair)
    handed = [
        pair_check and _recorded(result, p, pair_check)
        for result, (pair_check, _) in zip(results, checks)
    ]
    for c in range(p.b, bound + 1):
        t = p.triple(c)
        for result, (_, triple_check), data in zip(results, checks, handed):
            if triple_check and data is not _FAILED:
                _recorded(result, t, triple_check, data)
    return tuple(r.checks for r in results), tuple(r.failures for r in results)


def _summed(names, rows) -> list[SuiteResult]:
    """Each suite named, its rows added up in the order they come."""
    results = [SuiteResult(name) for name in names]
    for row in rows:
        for result, checks, failures in zip(results, *row):
            result.checks += checks
            result.failures += failures
    return results


def _forked(row, pairs, jobs: int) -> list:
    """row mapped over pairs on jobs forked workers, worker w on pairs[w::jobs]: the
    rows in walk order, or the first exception in walk order, raised again here.
    Row i is read from worker i % jobs, so what comes there is what happened at
    row i: the row, the exception that ended that share, or the end of file of a
    worker that died; after the last row, each worker's end of file.  Worker w is
    placed on cores[w % len(cores)::jobs] of the sorted usable cores, as it takes
    pairs[w::jobs]: the sets are disjoint while jobs <= cores, so no two workers
    share a core, and together they cover every core, so runs side by side still
    spread out.  Where os cannot place a process, or refuses, a worker stays where
    the scheduler put it."""
    import signal

    pipes, running = [], {}  # each worker's read end; the pid of each worker not yet reaped
    try:
        # SIGINT is blocked while they fork: the workers inherit the block, and
        # Ctrl-C reaches this process only, whose finally kills them
        held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            for w in range(jobs):
                read_end, write_end = os.pipe()
                pipes.append(open(read_end, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(row, pairs, w, jobs, pipes, write_end)
                finally:
                    os.close(write_end)
                running[w] = pid
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        rows = []
        for i in range(len(pairs) + jobs):  # each row, then each worker's end of file
            w = i % jobs
            try:
                record = marshal.load(pipes[w])
            except EOFError:
                status = os.waitpid(running.pop(w), 0)[1]
                if not status and i >= len(pairs):  # a clean exit after its last row
                    continue
                raise InternalCheckError(f"verify worker {w} of {jobs} died: wait status {status}")
            if isinstance(record, bytes):  # the share ended here, in this exception
                import pickle

                raise pickle.loads(record)
            rows.append(record)
        return rows
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(row, pairs, w: int, jobs: int, pipes, write_end: int):
    """Forked worker w of jobs, on its share of the cores: each row of its share
    pairs[w::jobs], dumped and flushed as one marshal record as soon as it is
    computed, or the pickled exception that ended the share, as bytes.  It leaves by
    os._exit, so it runs no exit hook, flushes no stdio buffer it copied, and never
    returns into its parent's stack; it leaves early, at its next flush, once its
    parent is gone."""
    code = 1
    try:
        try:  # a core that is gone, or a sandbox that refuses, leaves it where it is
            if hasattr(os, "sched_setaffinity"):  # missing on some platforms
                cores = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, cores[w % len(cores)::jobs])
        except OSError:
            pass
        for pipe in pipes:  # the parent is the only reader: once it is gone, a flush fails
            pipe.close()
        with open(write_end, "wb") as out:
            try:
                for pair in pairs[w::jobs]:
                    marshal.dump(row(pair), out)
                    out.flush()
            except Exception as e:
                import pickle

                marshal.dump(pickle.dumps(e), out)
        code = 0
    finally:
        os._exit(code)


def _run(bound: int, names, jobs: int = 1) -> list[SuiteResult]:
    """Every suite named, summed over the pairs' rows up to bound in walk order, on
    at most jobs forked workers; in process where os has no fork."""
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    if bound > 1000:  # the walk grows like bound**4 from 27 s at 100: days on two cores
        raise ValueError(f"bound must be at most 1000, got {bound}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    pairs = [(a, b) for a in range(2, bound + 1) for b in range(a, bound + 1)]
    row = partial(_row, bound, names)
    jobs = min(jobs, len(pairs))
    forked = jobs > 1 and hasattr(os, "fork")
    return _summed(names, _forked(row, pairs, jobs) if forked else map(row, pairs))


def _alone(name: str, bound: int) -> SuiteResult:
    return _run(bound, [name])[0]


suite_nr_formula = partial(_alone, "nr-formula-vs-staircase")
suite_membership_oracle = partial(_alone, "power-membership-oracle")
suite_q_recursion = partial(_alone, "q-recursion")
suite_hilbert = partial(_alone, "hilbert-coefficients")
suite_fundamental_genus = partial(_alone, "fundamental-genus")
suite_negative_definite = partial(_alone, "negative-definiteness")
suite_classification = partial(_alone, "classification")
suite_certificates = partial(_alone, "nr3-certificates")
suite_pg_bound = partial(_alone, "pg-lower-bound")


def run_all(bound: int, jobs: int = 1) -> list[SuiteResult]:
    """Every suite in one walk up to bound, on at most jobs forked workers."""
    return _run(bound, list(_SUITES), jobs)
