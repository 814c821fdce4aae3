"""Elementary exact integer utilities.

Everything here is pure integer arithmetic: Hirzebruch-Jung
(descending) continued fractions and the negated modular inverse used to
compute the branch data of resolution graphs, and the floor sum behind the
lattice-point count for p_g.  No floating point.
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


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) in O(log m) steps.

    Requires n >= 0 and m >= 1; a and b are any integers.  Euclid-style
    recurrence: split off the integer parts of a/m and b/m, then count the
    remaining lattice points under the line by rows instead of columns,
    which swaps the roles of m and a (as in the AtCoder Library).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m
