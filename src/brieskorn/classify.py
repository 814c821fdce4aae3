"""One record per triple: p_g, q(n*m) and p_f, and the classification they decide.

The record keeps only what reads c.  nr(m) = br(m), v_n and the Hilbert
coefficients depend on (a, b) alone, so they are read from t.pair
(ring.BrieskornPair).

Wherever the source result gives both a computable criterion and an explicit
family list (elliptic singularities, boundary cases p_g = C(nr, 2)), both
paths are evaluated and any disagreement raises: the lists are executable
statements, not lookups.  CERTIFICATE_FAMILIES is the one table of the
nr(J) >= 3 certificate families, read by verify as well.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import filtration, genus, resolution
from .errors import InternalCheckError
from .ring import BrieskornTriple


class Invariants(
    namedtuple(
        "Invariants",
        "pg pf q rational elliptic boundary rees_normal pg_ideal_m nr_A pg_bound_holds",
    )
):
    """p_g, p_f and q(n*m) of one triple, and what they decide with t.pair.nr.

    q holds q(n*m) for n = 0..nr(m)+1.  rational: p_g = 0.  elliptic: p_f = 1,
    agreeing with the elliptic list.  boundary: p_g = C(nr(m), 2), agreeing with
    the boundary list.  rees_normal: br(m) = a - 1.  pg_ideal_m: a = 2 and
    br(m) = 1, i.e. b in {2, 3}.  nr_A: ("exact", nr) or ("lower_bound", nr).
    pg_bound_holds: p_g >= C(nr(m), 2) + q(nr(m) * m).
    """

    __slots__ = ()


def in_elliptic_list(t: BrieskornTriple) -> bool:
    """Explicit list of triples with fundamental genus one."""
    a, b, c = t.a, t.b, t.c
    return (
        (a, b) == (2, 3) and c >= 6
        or (a, b) == (2, 4)  # any c >= b
        or (a, b) == (2, 5) and c <= 9
        or (a, b) == (3, 3)  # any c >= 3
        or (a, b) == (3, 4) and c <= 5
    )


def boundary_family_nr(t: BrieskornTriple) -> int | None:
    """nr(A) if (a, b, c) is in the explicit boundary list, else None."""
    a, b, c = t.a, t.b, t.c
    if a == 2:
        if b == 2:
            return 1
        if b == 3 and c <= 5:
            return 1
        if b == 4 and c <= 7:
            return 2
        if b % 2 == 0 and b >= 6 and c <= b + 2:
            return b // 2
        if b % 2 == 1 and b >= 5 and c <= b + 1:
            return (b - 1) // 2
    elif a == 3:
        # the a = 3 families stop at b <= 5: for b >= 7 the weight of x
        # drops below the a-invariant and the lattice count picks up an
        # extra point, so p_g exceeds C(nr, 2) by at least one
        if b == 3 and c <= 5:
            return 2
        if b == 4 and c == 4:
            return 2
        if b == 5 and c <= 6:
            return 3
    return None


def invariants(t: BrieskornTriple) -> Invariants:
    """The record of t, kept by t once built: q(n*m) and p_f, once each from the
    lattice count p_g, and both classification paths checked.

    nr(A) = nr(m) exactly when p_g < C(nr+1, 2), which covers every member of
    the boundary list: there p_g = C(nr, 2) and, as checked here, nr(A) = nr.
    """
    if "invariants" in t.__dict__:
        return t.__dict__["invariants"]
    pg = genus.geometric_genus(t)
    q = filtration.q_sequence(t, pg)
    pf = resolution.fundamental_genus(t)
    nr = t.pair.nr

    elliptic = pf == 1
    listed = in_elliptic_list(t)
    if elliptic != listed:
        raise InternalCheckError(f"{t}: p_f path says {elliptic}, elliptic list says {listed}")

    boundary = pg == comb(nr, 2)
    family = boundary_family_nr(t)
    if family != (nr if boundary else None):
        raise InternalCheckError(
            f"{t}: p_g count says boundary {boundary} at nr(m) = {nr}, boundary list says {family}"
        )

    t.__dict__["invariants"] = record = Invariants(
        pg=pg,
        pf=pf,
        q=q,
        rational=pg == 0,
        elliptic=elliptic,
        boundary=boundary,
        rees_normal=nr == t.a - 1,
        pg_ideal_m=t.a == 2 and nr == 1,
        nr_A=("exact" if pg < comb(nr + 1, 2) else "lower_bound", nr),
        pg_bound_holds=pg >= comb(nr, 2) + q[nr],
    )
    return record


# the br = 2 families with an nr(J) >= 3 certificate: (a, b) -> least c
CERTIFICATE_FAMILIES = {(2, 5): 10, (3, 4): 8}


def _in_reduction_power(u: int, v: int, n: int) -> bool:
    """y^u z^v in (y, z^2)^n, i.e. u + floor(v/2) >= n."""
    return u + v // 2 >= n


def verify_nr3_certificate(t: BrieskornTriple) -> bool:
    """Check the explicit nr(J) >= 3 certificates for J = closure((y, z^2)).

    The witness is x^{a-1} z, whose a-th power is (y^b + z^c)^{a-1} z^a up to
    sign.  Family (2, 5, c >= 10): xz is not in (y, z^2) but (xz)^2 =
    (y^5 + z^c)z^2 lies in (y, z^2)^6.  Family (3, 4, c >= 8): x^2 z is not in
    (y, z^2) but (x^2 z)^3 = (y^4 + z^c)^2 z^3 lies in (y, z^2)^9.
    """
    a, b, c = t.a, t.b, t.c
    if c < CERTIFICATE_FAMILIES.get((a, b), c + 1):
        raise ValueError(f"{t}: outside the certificate families")

    # the witness monomial (z, resp. z) is outside (y, z^2) itself
    if _in_reduction_power(0, 1, 1):
        raise InternalCheckError("z should not lie in (y, z^2)")

    # every term of (y^b + z^c)^{a-1} * z^a lies in (y, z^2)^{3a}
    return all(
        _in_reduction_power(b * s, c * (a - 1 - s) + a, 3 * a) for s in range(a)
    )
