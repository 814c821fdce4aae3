"""Geometric genus in closed form, its lattice-point oracle, and the c-free tail of q(m).

geometric_genus reads p_g off Laufer's formula 1 + mu = chi(E) + K^2 + 12 p_g
(Laufer, "On mu for surface singularities", 1977) on the Seifert star that
resolution.seifert_data builds, with mu = (a-1)(b-1)(c-1) the Milnor number,
but from gcds of (a, b, c) alone, building no record.  Take each exponent x
with the other two y, z: m = gcd(y, z) copies of a chain with alpha = x/d and
lambda = lcm(y, z)/d, where d = gcd(x, lcm(y, z)).  With P = abc and
l = lcm(a, b, c) = alpha lcm(y, z), G = P/l = m d on every leg, the central
genus has 2g - 2 = G - sum m, and the orbifold Euler number is e = -P/l^2.
K^2 is summed per chain, and each chain's sum of (b_j - 3) collapses, by the
Hirzebruch-Zagier identity, into the Dedekind sum s(lambda, alpha)
(numtheory.dedekind_sum_12k).  With C = l (2g - 2 + sum m (1 - 1/alpha)),
which is P - sum m l/alpha = abc - bc - ac - ab, this reads

  12 P p_g = (mu + 1 + 3 (G - sum m)) P + G^2 + C^2 - sum m (P/alpha) 12 alpha s(lambda, alpha),

in integers, over the three exponents.  A chain with alpha <= 2 adds no
Dedekind sum, as s(1, 2) = 0.  That is O(log c) steps, and it reads neither
the weights nor the a-invariant of t.  p_g is an integer, so a right side that
12 P does not divide raises InternalCheckError.
The tests check the identity with K solved on the expanded star, and keep an
O(a log b) Euclid-ladder count as a second oracle.  The first, the direct loop
over the lattice points of the weighted simplex, (t0, t1, t2) >= 0 with
bc t0 + ac t1 + ab t2 <= abc - bc - ac - ab, is kept as geometric_genus_oracle
and compared against it in verify.suite_pg_bound.  q(m) = p_g minus the c-free
tail sum q_of_m_tail of a pair; verify.suite_q_recursion checks q_1 against
that tail, once per pair, and the triple's one p_g.  The reports read q(m) as
q_1 of the record's q(n*m) (classify.Invariants.q), built from that same p_g.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalCheckError
from .numtheory import dedekind_sum_12k
from .ring import BrieskornPair, BrieskornTriple


def geometric_genus(t: BrieskornTriple) -> int:
    """p_g by Laufer's formula in closed form (module docstring), 0 if a(B) < 0; kept by t."""
    if "geometric_genus" in t.__dict__:
        return t.__dict__["geometric_genus"]
    a, b, c = t
    P = a * b * c
    C = P - b * c - a * c - a * b  # l (2g - 2 + sum m (1 - 1/alpha))
    copies = dedekind = 0
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        m = gcd(y, z)
        L = y // m * z
        d = gcd(x, L)
        alpha = x // d
        copies += m
        if alpha > 2:
            dedekind += m * (P // alpha) * dedekind_sum_12k(L // d % alpha, alpha)
    G = m * d  # abc / lcm(a, b, c), the same on every leg
    numerator = ((a - 1) * (b - 1) * (c - 1) + 1 + 3 * (G - copies)) * P + G * G + C * C
    pg, remainder = divmod(numerator - dedekind, 12 * P)
    if remainder:
        raise InternalCheckError(f"{t}: 12 abc does not divide Laufer's numerator for p_g")
    t.__dict__["geometric_genus"] = pg
    return pg


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
