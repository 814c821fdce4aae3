"""Elementary exact integer utilities.

Everything here is pure integer arithmetic: Hirzebruch-Jung
(descending) continued fractions and the negated modular inverse used to
compute the branch data of resolution graphs.  No floating point.  The
floor-sum recurrence of the lattice-point count for p_g lives in
genus.geometric_genus, on one Euclid ladder per triple.
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
