"""Geometric genus by lattice-point counting, and the c-free tail of q(m).

p_g equals the number of nonnegative integer triples (t0, t1, t2) with
q0*t0 + q1*t1 + q2*t2 <= D - q0 - q1 - q2, where (q0, q1, q2) = (bc, ac, ab)
are the weights of x, y, z and D = abc.  geometric_genus loops over t0 only,
at most a - 1 terms: the floors nest, so each term counts c*t1 + b*t2 <= s with
s = floor(r0/a), a floor sum over t1.  Its Euclid-style recurrence steps down
one ladder on (b, c), built once per triple, so the count costs O(a log b).
The direct loop over t0 and t1 is kept as geometric_genus_oracle and compared
against it in verify.suite_pg_bound.  q(m) = p_g minus the c-free tail sum q_of_m_tail of a
pair; verify.suite_q_recursion checks q_1 against that tail, once per pair, and
the triple's one p_g.  The reports read q(m) as q_1 of the record's q(n*m)
(classify.Invariants.q), built from that same p_g.
"""

from __future__ import annotations

from .ring import BrieskornPair, BrieskornTriple


def geometric_genus(t: BrieskornTriple) -> int:
    """Exact count of lattice points in the weighted simplex, 0 if a(B) < 0; kept by t."""
    if "geometric_genus" in t.__dict__:
        return t.__dict__["geometric_genus"]
    a, b, c = t
    # the floor-sum recurrence's steps (m, x mod m, x // m) on (b, c) do not read
    # the offset or the count: Euclid's ladder, one per triple
    ladder, m, x = [], b, c
    while m:
        ladder.append((m, x % m, x // m))
        m, x = x % m, m
    total = 0
    for r0 in range(t.a_invariant, -1, -t.q0):  # r0 = bound - q0*t0; empty if bound < 0
        # #{(t1, t2) >= 0 : c*t1 + b*t2 <= s}, as floor(r0/(ab)) = floor(floor(r0/a)/b):
        # the sum over t1 < n of floor((s - c*t1)/b) + 1, with t1 -> n - 1 - t1
        s = r0 // a
        n, y = s // c + 1, s % c
        total += n
        for m, r, q in ladder:  # sum_{i<n} floor((x*i + y)/m), x = q*m + r
            qy = y // m  # without divmod, whose call costs more than two operators
            total += q * (n * (n - 1) // 2) + qy * n
            y += r * n - qy * m
            if y < m:
                break
            n = y // m
            y -= n * m
    t.__dict__["geometric_genus"] = total
    return total


def geometric_genus_oracle(t: BrieskornTriple) -> int:
    """The same count by a direct loop over t0 and t1, in O(a*b)."""
    bound = t.a_invariant
    q0, q1, q2 = t.q0, t.q1, t.q2
    total = 0
    for t0 in range(bound // q0 + 1):  # empty if bound < 0
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
