"""The hypersurface ring of x^a + y^b + z^c and its staircase monomial ideals.

Monomials are written in the truncated basis {x^k y^i z^j : 0 <= k <= a-1},
using the relation x^a = -(y^b + z^c).  Every ideal handled here has the
shape sum_k x^k * Q^{e_k} with Q = (y, z); such an ideal is its per-level
thresholds e_0, ..., e_{a-1} and nothing more (StaircaseIdeal), and a monomial
x^k y^i z^j belongs to it exactly when i + j >= e_k.  This covers all closures
of powers of the maximal ideal and their Q-multiples.

The independent membership oracle raises a monomial to the a-th power and
reads off, for each level k and power n, the least total degree i + j that
puts x^k y^i z^j in the closure of m^n (power_membership_degree).  With b <= c
the expansion's least degrees are b k and do not read c, so the oracle takes a
pair, and membership, a threshold test in i + j on both sides, is compared with
e_k once per (pair, k, n).

BrieskornPair (a, b) is the one home of everything the filtration of m derives
without c: n_k, nr(m) = br(m), v_n, the sums S(n) with q(n*m) = p_g - S(n), and
the Hilbert coefficients, each in closed form, and v and S(n) in O(a) interpreted
steps: v is a - k repeated over each run n_{k-1} <= n < n_k, and S(n) two running
sums of it by itertools.accumulate.  It also keeps the ladder of staircases
closure(m^n), built once per pair by closure_of_m_power, which every staircase
oracle reads.  No staircase points back at its pair, so a pair and its ladder
hold no reference cycle and are freed by reference counting alone.  Triples
read the pair as t.pair, so verify checks it once per pair.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import comb, gcd
from operator import floordiv, sub

from .errors import InternalCheckError


class BrieskornPair(namedtuple("BrieskornPair", "a b")):
    """Validated exponents (a, b) with 2 <= a <= b: the part of a triple without c."""

    def __new__(cls, a: int, b: int):
        if a < 2:
            raise ValueError(f"need a >= 2, got a={a}")
        if b < a:
            raise ValueError(f"need a <= b, got ({a}, {b})")
        return super().__new__(cls, a, b)

    def triple(self, c: int) -> BrieskornTriple:
        """The triple (a, b, c), reading this pair's data instead of a copy of it."""
        t = BrieskornTriple(self.a, self.b, c)
        t.__dict__["pair"] = self  # where the cached property t.pair keeps its value
        return t

    @cached_property
    def n_seq(self) -> tuple[int, ...]:
        """n_k = floor(k*b/a) for k = 0..a-1; strictly increasing from k = 1 on."""
        return tuple(map(floordiv, range(0, self.a * self.b, self.b), repeat(self.a)))

    @cached_property
    def nr(self) -> int:  # nr(m) = br(m) = n_{a-1}
        return self.n_seq[self.a - 1]

    @cached_property
    def v(self) -> tuple[int, ...]:
        """v_n = length of closure(m^{n+1}) / Q*closure(m^n) = #{k : n_k > n}, n = 0..nr: a - k
        on each run n_{k-1} <= n < n_k, then 0; filtration.colength_drop_oracle is its oracle."""
        n = self.n_seq
        runs = map(repeat, range(self.a - 1, 0, -1), map(sub, n[1:], n))
        return (*chain.from_iterable(runs), 0)

    @cached_property
    def drop_sums(self) -> tuple[int, ...]:
        """S(n) = sum_{k>=1} min(n, k) * v_k, n = 0..nr+1: S(0) = 0 and S(n) - S(n-1) =
        sum_{k>=n} v_k.  Checked against the Hilbert coefficients, by Abel summation on
        v_n = #{k : n_k > n}: S(1) = e1 - (a - 1) and S(nr + 1) = sum_k k v_k = e2."""
        # suffix sums for n = nr+1 down to 0, read back from n = 1: sum_{k>=n} v_k, n = 1..nr+1
        tails = [*accumulate(reversed(self.v), initial=0)][-2::-1]
        sums = (*accumulate(tails, initial=0),)
        _, e1, e2 = self.hilbert
        got, expected = (sums[1], sums[-1]), (e1 - self.a + 1, e2)
        if got != expected:
            raise InternalCheckError(f"{self}: S(1), S(nr+1) = {got} != e1-a+1, e2 = {expected}")
        return sums

    @cached_property
    def expansion_min_degrees(self) -> tuple[int, ...]:
        """Least (y, z)-degree of a term of (y^b + z^c)^k = (-x^a)^k, k = 0..a-1, for every
        c >= b.  The term y^{bs} z^{c(k-s)} has degree b s + c (k - s), which does not
        increase in s, so the least is b k, at s = k, in O(a)."""
        return tuple(self.b * k for k in range(self.a))

    @cached_property
    def hilbert(self) -> tuple[int, int, int]:
        """(e0_bar, e1_bar, e2_bar) = (a, sum_k n_k, sum_k C(n_k, 2)), in O(a)."""
        return (self.a, sum(self.n_seq), sum(map(comb, self.n_seq, repeat(2))))

    @cached_property
    def staircases(self) -> tuple[StaircaseIdeal, ...]:
        """closure(m^n) for n = 0..nr + max(a, 3) + 1, each built once by closure_of_m_power:
        the ladder that the staircase oracles of filtration and verify read.  The nr scan
        reads it up to nr + a + 1, the Hilbert fit up to nr + 4."""
        return tuple(closure_of_m_power(self, n) for n in range(self.nr + max(self.a, 3) + 2))


class BrieskornTriple(namedtuple("BrieskornTriple", "a b c")):
    """Validated exponent triple (a, b, c) with 2 <= a <= b <= c."""

    def __new__(cls, a: int, b: int, c: int):
        if a < 2:
            raise ValueError(f"need a >= 2, got a={a}")
        if not a <= b <= c:
            raise ValueError(f"need a <= b <= c, got ({a}, {b}, {c})")
        return super().__new__(cls, a, b, c)

    @cached_property
    def pair(self) -> BrieskornPair:
        return BrieskornPair(self.a, self.b)

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


def seifert_legs(t: BrieskornTriple) -> tuple[tuple[int, int, int], ...]:
    """(m, alpha, lambda) for each exponent x of t in turn, with y and z the other two: the
    Seifert star has m = gcd(y, z) copies of a chain with alpha = x/d and lambda =
    lcm(y, z)/d, where d = gcd(x, lcm(y, z)), so that m d = abc / lcm(a, b, c).  Unrolled,
    as scan reads it for every triple."""
    a, b, c = t
    m1, m2, m3 = gcd(b, c), gcd(a, c), gcd(a, b)
    l1, l2, l3 = b // m1 * c, a // m2 * c, a // m3 * b  # lcm(y, z)
    d1, d2, d3 = gcd(a, l1), gcd(b, l2), gcd(c, l3)
    return (m1, a // d1, l1 // d1), (m2, b // d2, l2 // d2), (m3, c // d3, l3 // d3)


def new_triple(a: int, b: int, c: int) -> BrieskornTriple:
    """Validate and build a Brieskorn triple (characteristic zero assumed)."""
    return BrieskornTriple(a, b, c)


class Monomial(namedtuple("Monomial", "k i j")):
    """x^k y^i z^j in the truncated basis (0 <= k <= a-1)."""

    __slots__ = ()

    def __new__(cls, k: int, i: int, j: int):
        self = super().__new__(cls, k, i, j)
        if k < 0 or i < 0 or j < 0:
            raise ValueError(f"exponents must be nonnegative, got {self}")
        return self


class StaircaseIdeal(namedtuple("StaircaseIdeal", "thresholds")):
    """An ideal sum_k x^k * Q^{e_k}, Q = (y, z): its thresholds e_k, k = 0..a-1, and
    nothing else, so a = len(thresholds).  e_k = 0 encodes the full level x^k * A."""

    __slots__ = ()

    def __new__(cls, thresholds: tuple[int, ...]):
        for e in thresholds:
            if e < 0:
                raise ValueError(f"thresholds must be nonnegative, got {e}")
        return super().__new__(cls, thresholds)


# namedtuple's _make, which _replace calls, skips __new__: build through its checks
_make = classmethod(lambda cls, fields: cls(*fields))
BrieskornPair._make = BrieskornTriple._make = Monomial._make = StaircaseIdeal._make = _make


def closure_of_m_power(p: BrieskornPair, n: int) -> StaircaseIdeal:
    """Integral closure of m^n: thresholds e_k = max(n - n_k, 0).

    n = 0 gives the unit ideal (all thresholds zero).
    """
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    return StaircaseIdeal(tuple(max(n - nk, 0) for nk in p.n_seq))


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


def power_membership_degree(p: BrieskornPair, k: int, n: int) -> int:
    """Least i + j with x^k y^i z^j in the closure of m^n, by the a-th power.

    (x^k y^i z^j)^a rewrites as (-1)^k (y^b + z^c)^k y^{ai} z^{aj}; the
    monomial lies in the closure of m^n iff every term of that expansion has
    (y, z)-degree at least n*a, i.e. iff min_term + a*(i + j) >= n*a with
    min_term = p.expansion_min_degrees[k], the same for every c >= b.  Derived
    from the expansion alone, independent of the staircase thresholds; lies in 0..n.
    """
    if n < 1:
        raise ValueError(f"power must be positive, got {n}")
    if not 0 <= k < p.a:
        raise ValueError(f"x-exponent {k} outside 0..{p.a - 1}")
    # ceil((n*a - min_term) / a), clamped at 0
    return max(0, -((p.expansion_min_degrees[k] - n * p.a) // p.a))
