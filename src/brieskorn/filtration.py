"""The oracles of the filtration of m, and q(n*m).

The sequence q(n*m) is pinned combinatorially: starting from q(0) = p_g, the
recursion 2*q(n) + v_n = q(n+1) + q(n-1) together with stabilization
(v_n = 0 for n >= br) gives the closed form

    q(n) = p_g - S(n),  S(n) = sum_{k>=1} min(n, k) * v_k.

Only p_g reads c.  nr(m), v_n, S(n) and the normal Hilbert coefficients live
on the pair alone (ring.BrieskornPair), so q_sequence only subtracts and
checks q(n) >= 0.  For n >= n_{a-1} the colength of closure(m^{n+1}) is
sum_k C(n+2-n_k, 2) = a*C(n+2, 2) - (sum_k n_k)(n+1) + sum_k C(n_k, 2), which
gives the Hilbert coefficients in O(a).  The oracles here take a pair; verify
runs them once per pair: the staircase scan for nr(m), the colength oracle for
v_n, S(n) term by term (drop_sum), and the finite-difference fit
normal_hilbert_coefficients.  The staircase oracles index the pair's one ladder
of closure(m^n) (ring.BrieskornPair.staircases), so the staircases are built
once per pair, not once per oracle.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .ring import BrieskornPair, BrieskornTriple, colength, multiply_by_Q


def nr_by_staircase_oracle(p: BrieskornPair) -> int:
    """Smallest n with closure(m^{n+1}) = Q*closure(m^n), by direct comparison.

    Also scans past the first hit up to n_{a-1} + a and demands that equality
    persists, so the same pass certifies br = nr.
    """
    ladder, scan_to = p.staircases, p.n_seq[-1] + p.a
    first: int | None = None
    for n in range(scan_to + 1):
        equal = ladder[n + 1] == multiply_by_Q(ladder[n])
        if equal and first is None:
            first = n
        elif not equal and first is not None:
            raise InternalCheckError(
                f"{p}: stabilization lost again at n={n} after first equality at {first}"
            )
    if first is None:
        raise InternalCheckError(f"{p}: no stabilization up to n={scan_to}")
    return first


def colength_drop_oracle(p: BrieskornPair, n: int) -> int:
    """v_n from raw colengths in the ring module: the oracle of BrieskornPair.v.
    n runs over the ladder, 0..nr + max(a, 3)."""
    ladder = p.staircases
    if not 0 <= n < len(ladder) - 1:
        raise ValueError(f"n = {n} outside 0..{len(ladder) - 2}")
    return colength(multiply_by_Q(ladder[n])) - colength(ladder[n + 1])


def drop_sum(p: BrieskornPair, n: int) -> int:
    """S(n) = sum_{k>=1} min(n, k) * v_k term by term: the oracle of BrieskornPair.drop_sums."""
    return sum(min(n, k) * p.v[k] for k in range(1, p.nr + 1))


def q_sequence(t: BrieskornTriple, pg: int) -> tuple[int, ...]:
    """q(n*m) = p_g - S(n) for n = 0..nr+1, with S(n) from t.pair, checked >= 0."""
    if pg < 0:
        raise ValueError(f"pg must be nonnegative, got {pg}")
    sums = t.pair.drop_sums
    if pg < sums[-1]:  # v_k >= 0, so S(n) never decreases and q(n) is least at n = nr + 1
        n = next(n for n, s in enumerate(sums) if pg < s)
        raise InternalCheckError(f"{t}: q({n}*m) = {pg - sums[n]} < 0 with pg = {pg}")
    return (*map(pg.__sub__, sums),)


def normal_hilbert_coefficients(p: BrieskornPair) -> tuple[int, int, int]:
    """(e0_bar, e1_bar, e2_bar) of the eventual quadratic colength polynomial.

    length(A / closure(m^{n+1})) = e0*C(n+2,2) - e1*(n+1) + e2 holds exactly
    once the filtration stabilizes (n >= n_{a-1}); the coefficients are read
    off by finite differences at three such points and checked on a fourth.
    The oracle of BrieskornPair.hilbert.  perfbench's traced probe still passes
    a triple, which is read as its pair.
    """
    if isinstance(p, BrieskornTriple):
        p = p.pair
    n0 = p.n_seq[-1]  # nr(m)
    h = [colength(ideal) for ideal in p.staircases[n0 + 1 : n0 + 5]]
    e0 = h[2] - 2 * h[1] + h[0]
    e1 = e0 * (n0 + 2) - (h[1] - h[0])
    e2 = h[0] - e0 * (n0 + 2) * (n0 + 1) // 2 + e1 * (n0 + 1)

    def poly(n: int) -> int:
        return e0 * (n + 2) * (n + 1) // 2 - e1 * (n + 1) + e2

    if poly(n0 + 3) != h[3]:
        raise InternalCheckError(f"{p}: colength tail is not quadratic at n={n0 + 3}")
    if e0 != p.a:
        raise InternalCheckError(f"{p}: multiplicity e0_bar = {e0}, expected {p.a}")
    return (e0, e1, e2)
