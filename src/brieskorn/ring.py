"""The hypersurface ring of x^a + y^b + z^c and its staircase monomial ideals.

Monomials are written in the truncated basis {x^k y^i z^j : 0 <= k <= a-1},
using the relation x^a = -(y^b + z^c).  Every ideal handled here has the
shape sum_k x^k * Q^{e_k} with Q = (y, z); such an ideal is its per-level
thresholds e_0, ..., e_{a-1} and nothing more (StaircaseIdeal), and a monomial
x^k y^i z^j belongs to it exactly when i + j >= e_k.  This covers all closures
of powers of the maximal ideal and their Q-multiples.

The independent membership oracle raises a monomial to the a-th power and
reads off, for each level k and power n, the least total degree i + j that
puts x^k y^i z^j in the closure of m^n (power_membership_degree).  Membership
is a threshold test in i + j on both sides, so verify compares that degree with
e_k once per (pair, k, n), on (a, b, b), and the expansions once per triple.

BrieskornPair (a, b) is the one home of everything the filtration of m derives
without c: n_k, nr(m) = br(m), v_n, the sums S(n) with q(n*m) = p_g - S(n), and
the Hilbert coefficients, each in closed form.  It also keeps the ladder of
staircases closure(m^n), built once per pair by closure_of_m_power, which every
staircase oracle reads.  No staircase points back at its pair, so a pair and
its ladder hold no reference cycle and are freed by reference counting alone.
Triples read the pair as t.pair, so verify checks it once per pair.  The
staircase functions below accept a triple or its pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import InternalCheckError


@dataclass(frozen=True)
class BrieskornPair:
    """Validated exponents (a, b) with 2 <= a <= b: the part of a triple without c."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 2:
            raise ValueError(f"need a >= 2, got a={self.a}")
        if self.b < self.a:
            raise ValueError(f"need a <= b, got ({self.a}, {self.b})")

    def triple(self, c: int) -> BrieskornTriple:
        """The triple (a, b, c), reading this pair's data instead of a copy of it."""
        t = BrieskornTriple(self.a, self.b, c)
        t.__dict__["pair"] = self  # where the cached property t.pair keeps its value
        return t

    @cached_property
    def n_seq(self) -> tuple[int, ...]:
        """n_k = floor(k*b/a) for k = 0..a-1; strictly increasing from k = 1 on."""
        return tuple(k * self.b // self.a for k in range(self.a))

    @cached_property
    def nr(self) -> int:  # nr(m) = br(m) = n_{a-1}
        return self.n_seq[self.a - 1]

    @cached_property
    def v(self) -> tuple[int, ...]:
        """v_n = length of closure(m^{n+1}) / Q*closure(m^n) = max(a - ceil(a(n+1)/b), 0),
        n = 0..nr; filtration.colength_drop_oracle is its oracle."""
        return tuple(max(self.a + -self.a * (n + 1) // self.b, 0) for n in range(self.nr + 1))

    @cached_property
    def drop_sums(self) -> tuple[int, ...]:
        """S(n) = sum_{k>=1} min(n, k) * v_k, n = 0..nr+1, by running sums.  Re-checks the
        q-recursion 2 q_n + v_n = q_{n+1} + q_{n-1}: S(n+1) - 2 S(n) + S(n-1) = -v_n."""
        v = self.v
        head, tail = 0, sum(v[1:])  # sum_{1<=k<=n} k*v_k and sum_{k>n} v_k
        sums = []
        for n in range(self.nr + 2):
            if 1 <= n <= self.nr:
                head, tail = head + n * v[n], tail - v[n]
            sums.append(head + n * tail)
        for n in range(1, self.nr + 1):
            if sums[n + 1] - 2 * sums[n] + sums[n - 1] != -v[n]:
                raise InternalCheckError(f"{self}: q-recursion fails at n={n}")
        return tuple(sums)

    @cached_property
    def hilbert(self) -> tuple[int, int, int]:
        """(e0_bar, e1_bar, e2_bar) = (a, sum_k n_k, sum_k C(n_k, 2)), in O(a)."""
        return (self.a, sum(self.n_seq), sum(comb(nk, 2) for nk in self.n_seq))

    @cached_property
    def staircases(self) -> tuple[StaircaseIdeal, ...]:
        """closure(m^n) for n = 0..nr + max(a, 3) + 1, each built once by closure_of_m_power:
        the ladder that the staircase oracles of filtration and verify read.  The nr scan
        reads it up to nr + a + 1, the Hilbert fit up to nr + 4.  Each rung is only its
        thresholds, so the ladder is freed with its pair by reference counting."""
        return tuple(closure_of_m_power(self, n) for n in range(self.nr + max(self.a, 3) + 2))


@dataclass(frozen=True)
class BrieskornTriple:
    """Validated exponent triple (a, b, c) with 2 <= a <= b <= c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 2:
            raise ValueError(f"need a >= 2, got a={self.a}")
        if not self.a <= self.b <= self.c:
            raise ValueError(f"need a <= b <= c, got ({self.a}, {self.b}, {self.c})")

    @cached_property
    def pair(self) -> BrieskornPair:
        return BrieskornPair(self.a, self.b)

    @cached_property
    def n_seq(self) -> tuple[int, ...]:
        return self.pair.n_seq

    @property
    def staircases(self) -> tuple[StaircaseIdeal, ...]:
        return self.pair.staircases

    @cached_property
    def expansion_min_degrees(self) -> tuple[int, ...]:
        """Least (y, z)-degree of a term of (y^b + z^c)^k = (-x^a)^k, k = 0..a-1."""
        return tuple(
            min(self.b * s + self.c * (k - s) for s in range(k + 1)) for k in range(self.a)
        )

    @property
    def q0(self) -> int:
        return self.b * self.c

    @property
    def q1(self) -> int:
        return self.a * self.c

    @property
    def q2(self) -> int:
        return self.a * self.b

    @property
    def D(self) -> int:
        return self.a * self.b * self.c

    @property
    def a_invariant(self) -> int:
        return self.D - self.q0 - self.q1 - self.q2


def new_triple(a: int, b: int, c: int) -> BrieskornTriple:
    """Validate and build a Brieskorn triple (characteristic zero assumed)."""
    return BrieskornTriple(a, b, c)


@dataclass(frozen=True)
class Monomial:
    """x^k y^i z^j in the truncated basis (0 <= k <= a-1)."""

    k: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.i < 0 or self.j < 0:
            raise ValueError(f"exponents must be nonnegative, got {self}")


@dataclass(frozen=True)
class StaircaseIdeal:
    """An ideal sum_k x^k * Q^{e_k}, Q = (y, z): its thresholds e_k, k = 0..a-1, and
    nothing else, so a = len(thresholds).  e_k = 0 encodes the full level x^k * A."""

    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        for e in self.thresholds:
            if e < 0:
                raise ValueError(f"thresholds must be nonnegative, got {e}")


def closure_of_m_power(t: BrieskornTriple | BrieskornPair, n: int) -> StaircaseIdeal:
    """Integral closure of m^n: thresholds e_k = max(n - n_k, 0).

    n = 0 gives the unit ideal (all thresholds zero).
    """
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    return StaircaseIdeal(tuple(max(n - nk, 0) for nk in t.n_seq))


def contains(ideal: StaircaseIdeal, m: Monomial) -> bool:
    """Membership test: x^k y^i z^j is in the ideal iff i + j >= e_k."""
    if m.k >= len(ideal.thresholds):
        raise ValueError(f"x-exponent {m.k} exceeds a-1 = {len(ideal.thresholds) - 1}")
    return m.i + m.j >= ideal.thresholds[m.k]


def multiply_by_Q(ideal: StaircaseIdeal) -> StaircaseIdeal:
    """Q * sum_k x^k Q^{e_k} = sum_k x^k Q^{e_k + 1}."""
    return StaircaseIdeal(tuple(e + 1 for e in ideal.thresholds))


def colength(ideal: StaircaseIdeal) -> int:
    """Length of A / ideal: counts basis monomials x^k y^i z^j with i+j < e_k."""
    return sum(e * (e + 1) // 2 for e in ideal.thresholds)


def power_membership_degree(t: BrieskornTriple, k: int, n: int) -> int:
    """Least i + j with x^k y^i z^j in the closure of m^n, by the a-th power.

    (x^k y^i z^j)^a rewrites as (-1)^k (y^b + z^c)^k y^{ai} z^{aj}; the
    monomial lies in the closure of m^n iff every term of that expansion has
    (y, z)-degree at least n*a, i.e. iff min_term + a*(i + j) >= n*a with
    min_term = t.expansion_min_degrees[k].  Derived from the expansion alone,
    independent of the staircase thresholds; lies in 0..n.
    """
    if n < 1:
        raise ValueError(f"power must be positive, got {n}")
    if not 0 <= k < t.a:
        raise ValueError(f"x-exponent {k} outside 0..{t.a - 1}")
    # ceil((n*a - min_term) / a), clamped at 0
    return max(0, -((t.expansion_min_degrees[k] - n * t.a) // t.a))
