"""Elementary exact integer utilities.

Everything here is pure integer arithmetic: Hirzebruch-Jung
(descending) continued fractions and the negated modular inverse used to
compute the branch data of resolution graphs, and the Dedekind sum, scaled to
an integer, that genus.geometric_genus sums over the branches of the star.
No floating point and no fractions.
"""

from __future__ import annotations

from math import gcd


def hj_expand(alpha: int, beta: int) -> tuple[int, ...]:
    """Expand alpha/beta as a Hirzebruch-Jung continued fraction (c_1, ..., c_s).

    The expansion [[c_1, ..., c_s]] denotes c_1 - 1/(c_2 - 1/(... - 1/c_s))
    with every c_j >= 2.  Requires 0 <= beta < alpha with gcd(alpha, beta) = 1
    when beta >= 1; (1, 0) is allowed and yields the empty expansion.  Its
    inverse, hj_evaluate, is in tests/test_numtheory.py.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 <= beta < alpha:
        raise ValueError(f"need 0 <= beta < alpha, got beta={beta}, alpha={alpha}")
    if beta == 0:
        if alpha != 1:
            raise ValueError("beta = 0 is only allowed together with alpha = 1")
        return ()
    if gcd(alpha, beta) != 1:
        raise ValueError(f"alpha={alpha} and beta={beta} are not coprime")

    expansion: list[int] = []
    num, den = alpha, beta
    while den:
        c = -(-num // den)  # ceil(num/den)
        expansion.append(c)
        # partial denominators stay positive: 0 <= c*den - num < den
        num, den = den, c * den - num
    return tuple(expansion)


def mod_inverse_negation(lam: int, alpha: int) -> int:
    """The unique beta with lam*beta + 1 == 0 (mod alpha) and 0 <= beta < alpha.

    Returns 0 when alpha == 1.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    if alpha == 1:
        return 0
    try:
        inverse = pow(lam % alpha, -1, alpha)
    except ValueError as exc:
        raise ValueError(f"{lam} is not invertible modulo {alpha}") from exc
    return (-inverse) % alpha


def dedekind_sum_12k(h: int, k: int) -> int:
    """12k * s(h, k) for coprime 0 < h < k, in O(log k): the Dedekind sum
    s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)), with ((x)) = x - floor(x) - 1/2 off
    the integers and 0 on them, is an integer once scaled by 12k.

    By Hirzebruch and Zagier, 12 s(h, k) = sum_j (b_j - 3) + (h + h')/k over the
    HJ expansion k/h = [[b_1, ..., b_s]], with h h' == 1 (mod k) and 0 < h' < k.
    Over the regular continued fraction k/h = [q_1; q_2, ..., q_n], that sum of
    b_j - 3 is sum_i (-1)^(i+1) (q_i - 1) - 1 - [n odd], so no HJ expansion is
    built, and h' comes from the same extended Euclid loop.  The sawtooth sum
    and hj_expand are its oracles in tests/test_numtheory.py.
    """
    if not 0 < h < k:
        raise ValueError(f"need 0 < h < k, got h={h}, k={k}")
    # (num, den) run through Euclid's remainders on (k, h); u, v are their
    # cofactors of h modulo k: num == u*h and den == v*h (mod k)
    alternating, sign, odd = 0, 1, 0
    num, den, u, v = k, h, 0, 1
    while den:
        q = num // den
        alternating += sign * (q - 1)
        sign, odd = -sign, odd ^ 1
        num, den, u, v = den, num - q * den, v, u - q * v
    if num != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    return k * (alternating - 1 - odd) + h + u % k
