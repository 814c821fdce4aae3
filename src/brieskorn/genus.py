"""Geometric genus by lattice-point counting, and the c-free tail of q(m).

p_g equals the number of nonnegative integer triples (t0, t1, t2) with
q0*t0 + q1*t1 + q2*t2 <= D - q0 - q1 - q2, where (q0, q1, q2) = (bc, ac, ab)
are the weights of x, y, z and D = abc.  geometric_genus loops over t0 only:
the t2 range collapses to an integer division and the t1 sum of those
divisions to one floor_sum, so the count costs O(a log(abc)).  The direct loop
over t0 and t1 is kept as geometric_genus_oracle and compared against it in
verify.suite_pg_bound.  q(m) = p_g minus the c-free tail sum q_of_m_tail of a
pair; verify.suite_q_recursion checks q_1 against that tail, once per pair, and
the triple's one p_g.  The reports read q(m) as q_1 of the record's q(n*m)
(classify.Invariants.q), built from that same p_g.
"""

from __future__ import annotations

from .numtheory import floor_sum
from .ring import BrieskornPair, BrieskornTriple


def geometric_genus(t: BrieskornTriple) -> int:
    """Exact count of lattice points in the weighted simplex; 0 if a(B) < 0."""
    bound = t.a_invariant
    if bound < 0:
        return 0
    q0, q1, q2 = t.q0, t.q1, t.q2
    total = 0
    for t0 in range(bound // q0 + 1):
        r0 = bound - q0 * t0
        # sum over t1 < n1 of floor((r0 - q1*t1)/q2) + 1, with t1 -> n1 - 1 - t1
        n1 = r0 // q1 + 1
        total += floor_sum(n1, q2, q1, r0 % q1) + n1
    return total


def geometric_genus_oracle(t: BrieskornTriple) -> int:
    """The same count by a direct loop over t0 and t1, in O(a*b)."""
    bound = t.a_invariant
    if bound < 0:
        return 0
    q0, q1, q2 = t.q0, t.q1, t.q2
    total = 0
    for t0 in range(bound // q0 + 1):
        r0 = bound - q0 * t0
        for t1 in range(r0 // q1 + 1):
            total += (r0 - q1 * t1) // q2 + 1
    return total


def q_of_m_tail(p: BrieskornPair) -> int:
    """sum_{n>=1} v_n, the part of q(m) = p_g - sum_{n>=1} v_n that does not read c.

    The sum telescopes to sum_{k=1}^{a-1} (n_k - n_{k-1})(a-k) minus the n = 0
    term v_0 = a - 1, which the recursion (valid only for n >= 1) never reaches.
    """
    n = p.n_seq
    return sum((n[k] - n[k - 1]) * (p.a - k) for k in range(1, p.a)) - (p.a - 1)
