"""Normal reduction numbers, the colength-drop sequence v_n, and q(n*m).

The sequence q(n*m) is pinned combinatorially: starting from q(0) = p_g, the
recursion 2*q(n) + v_n = q(n+1) + q(n-1) together with stabilization
(v_n = 0 for n >= br) gives the closed form

    q(n) = p_g - sum_{k>=1} min(n, k) * v_k.

q_sequence evaluates it for every n in O(br) with running sums and re-checks
the recursion and q(n) >= 0 as it goes.  The per-n definition q_value and the
colength oracle for v_n are compared against it in verify.suite_q_recursion.
It also reads off the normal Hilbert coefficients in O(a): for n >= n_{a-1}
the colength of closure(m^{n+1}) is sum_k C(n+2-n_k, 2), which expands to
a*C(n+2, 2) - (sum_k n_k)(n+1) + sum_k C(n_k, 2).  The finite-difference fit
normal_hilbert_coefficients is its oracle in verify.suite_hilbert.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalCheckError
from .ring import BrieskornTriple, closure_of_m_power, colength, multiply_by_Q


@dataclass(frozen=True)
class QSequence:
    """q(n*m), the drops v_n, and the normal Hilbert coefficients of m."""

    triple: BrieskornTriple
    pg: int
    nr: int  # nr(m) = br(m)
    v: tuple[int, ...]  # v_n for n = 0..nr
    q: tuple[int, ...]  # q(n*m) for n = 0..nr+1
    hilbert: tuple[int, int, int]  # (e0_bar, e1_bar, e2_bar)


def normal_reduction_number(t: BrieskornTriple) -> int:
    """nr(m) = br(m) = n_{a-1} = floor((a-1)b/a)."""
    return t.n_seq[t.a - 1]


def nr_by_staircase_oracle(t: BrieskornTriple) -> int:
    """Smallest n with closure(m^{n+1}) = Q*closure(m^n), by direct comparison.

    Also scans past the first hit up to n_{a-1} + a and demands that equality
    persists, so the same pass certifies br = nr.
    """
    scan_to = normal_reduction_number(t) + t.a
    first: int | None = None
    for n in range(scan_to + 1):
        equal = closure_of_m_power(t, n + 1) == multiply_by_Q(closure_of_m_power(t, n))
        if equal and first is None:
            first = n
        elif not equal and first is not None:
            raise InternalCheckError(
                f"{t}: stabilization lost again at n={n} after first equality at {first}"
            )
    if first is None:
        raise InternalCheckError(f"{t}: no stabilization up to n={scan_to}")
    return first


def colength_drop(t: BrieskornTriple, n: int) -> int:
    """v_n = length of closure(m^{n+1}) / Q*closure(m^n) = max(a - ceil(a(n+1)/b), 0)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return max(t.a - (-(-t.a * (n + 1) // t.b)), 0)


def colength_drop_oracle(t: BrieskornTriple, n: int) -> int:
    """The same drop computed from raw colengths in the ring module."""
    return colength(multiply_by_Q(closure_of_m_power(t, n))) - colength(
        closure_of_m_power(t, n + 1)
    )


def q_value(t: BrieskornTriple, pg: int, n: int) -> int:
    """q(n*m) by the closed form p_g - sum_{k>=1} min(n,k)*v_k."""
    br = normal_reduction_number(t)
    qn = pg - sum(min(n, k) * colength_drop(t, k) for k in range(1, br + 1))
    if qn < 0:
        raise InternalCheckError(f"{t}: q({n}*m) = {qn} < 0 with pg = {pg}")
    return qn


def q_sequence(t: BrieskornTriple, pg: int) -> QSequence:
    """Assemble the q/v data for m in O(br), re-checking the recursion, and e_bar in O(a)."""
    if pg < 0:
        raise ValueError(f"pg must be nonnegative, got {pg}")
    br = normal_reduction_number(t)
    v = tuple(colength_drop(t, n) for n in range(br + 1))
    # q(n) = p_g - head - n*tail with head = sum_{1<=k<=n} k*v_k, tail = sum_{k>n} v_k
    head, tail = 0, sum(v[1:])
    q = []
    for n in range(br + 2):
        if 1 <= n <= br:
            head += n * v[n]
            tail -= v[n]
        qn = pg - head - n * tail
        if qn < 0:
            raise InternalCheckError(f"{t}: q({n}*m) = {qn} < 0 with pg = {pg}")
        q.append(qn)

    for n in range(1, br + 1):
        if 2 * q[n] + v[n] != q[n + 1] + q[n - 1]:
            raise InternalCheckError(f"{t}: q-recursion fails at n={n}")

    return QSequence(
        triple=t,
        pg=pg,
        nr=br,
        v=v,
        q=tuple(q),
        hilbert=(t.a, sum(t.n_seq), sum(comb(nk, 2) for nk in t.n_seq)),
    )


def normal_hilbert_coefficients(t: BrieskornTriple) -> tuple[int, int, int]:
    """(e0_bar, e1_bar, e2_bar) of the eventual quadratic colength polynomial.

    length(A / closure(m^{n+1})) = e0*C(n+2,2) - e1*(n+1) + e2 holds exactly
    once the filtration stabilizes (n >= n_{a-1}); the coefficients are read
    off by finite differences at three such points and checked on a fourth.
    """
    n0 = normal_reduction_number(t)
    h = [colength(closure_of_m_power(t, n + 1)) for n in range(n0, n0 + 4)]
    e0 = h[2] - 2 * h[1] + h[0]
    e1 = e0 * (n0 + 2) - (h[1] - h[0])
    e2 = h[0] - e0 * (n0 + 2) * (n0 + 1) // 2 + e1 * (n0 + 1)

    def poly(n: int) -> int:
        return e0 * (n + 2) * (n + 1) // 2 - e1 * (n + 1) + e2

    if poly(n0 + 3) != h[3]:
        raise InternalCheckError(f"{t}: colength tail is not quadratic at n={n0 + 3}")
    if e0 != t.a:
        raise InternalCheckError(f"{t}: multiplicity e0_bar = {e0}, expected {t.a}")
    return (e0, e1, e2)
