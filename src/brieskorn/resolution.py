"""Weighted dual graph of the minimal good resolution, and the fundamental cycle.

The graph is a star: a central curve of genus g and self-intersection -c_0,
with ghat_1 + ghat_2 + ghat_3 chains of rational curves attached.  For each
w the chain weights are the HJ expansion of alpha_w / beta_w, repeated in
ghat_w identical copies; the branch is empty when alpha_w = 1.  DualGraph
stores one chain and its copies per branch, O(sum of chain lengths); the
expanded graph, Theta(B^2) vertices when b = c, is built on first read.  A
Cycle is the same kind of record: the center coefficient and one part per
branch, which every copy carries; its coefficient tuple is built on first read.

The fundamental cycle is computed in closed form on the star: after an
O(sum of chain lengths) definiteness check (every chain definite and the
orbifold Euler number e < 0), the center coefficient is the least x whose
chain ceilings ceil(x r_j / alpha) keep the center pairing <= 0, found among a
few candidates, and the result is checked anti-nef on one copy of each chain.
Its oracle in `verify` is Laufer's computation sequence, in batches on the
star from the lower bound L of laufer_start, proved from the dual cycles, to a
step bound proved from Z; the per-vertex sequence from the all-ones cycle is
the batches' oracle in the tests.  Definiteness and the adjunction p_f are
summed on the star, each chain kind weighted by its copies; the dense Bareiss
minor test and per-vertex adjunction are their oracles in the tests.  Z, L,
Laufer's sequence and p_a never expand the star.  A triple keeps its Seifert
data and star, and a star its chain kinds and Z, once each, in its __dict__ as
a cached property would and with no reference back, so the oracle, the
adjunction p_f and every verify suite share one star and one Z per triple.  The
closed forms for p_f and -Z^2 read only gcds of (a, b, c), not the record.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import FormulaInapplicableError, InternalCheckError
from .numtheory import hj_expand, mod_inverse_negation
from .ring import BrieskornTriple, seifert_legs


class SeifertData(
    namedtuple("SeifertData", "alpha lam beta ghat ghat_total genus center_weight")
):
    """Numerical data of the star-shaped resolution graph (one field per symbol).

    alpha, lam and beta are triples; ghat holds the pairwise gcds (b,c), (a,c),
    (a,b); ghat_total = abc / lcm(a,b,c); genus is the central curve's, and
    center_weight is c_0, the central self-intersection being -c_0.
    """

    __slots__ = ()


class DualGraph(namedtuple("DualGraph", "center branches")):
    """The star: center (self_intersection, genus) and one (w, chain, copies) per branch.

    chain lists the self-intersections of one copy of branch w's chain, center
    outward; the branch is copies identical chains, each attached to the center
    and to nothing else.  vertices and neighbors expand the star on first read,
    from to_json_dict's vertices: vertex i carries (self_intersection, genus) and
    vertex 0 is the center.  Vertices are ordered: center, then w ascending, copies
    in order, chain positions ascending (position 0 attaches to the center).
    """

    @cached_property
    def chain_kinds(self) -> tuple[tuple, int, int] | None:
        """(chain, copies m, continuant remainders) once per distinct chain, and e.

        For chain weights -b_1..-b_s (center outward), the remainders are
        r_{s+1} = 0, r_s = 1, r_{j-1} = b_j r_j - r_{j+1}, so alpha = r_0 and
        beta = r_1.  Eliminating a chain from its tip, the pivot at position j is
        -r_{j-1}/r_j, so the chain is negative definite iff every r_j > 0; then
        the center's pivot is the orbifold Euler number e = -c_0 + sum m beta/alpha,
        returned as its numerator over ell = lcm(alpha).  None if a chain is not
        negative definite.  Computed once per star, on first read.
        """
        copies: dict[tuple[int, ...], int] = {}
        for _, chain, m in self.branches:
            copies[chain] = copies.get(chain, 0) + m
        kinds = []
        for chain, m in copies.items():
            r = [0, 1]  # r_{s+1}, r_s, then r_{s-1}, ..., r_0
            for w in reversed(chain):
                r.append(-w * r[-1] - r[-2])
            if min(r[1:]) <= 0:
                return None
            kinds.append((chain, m, tuple(r[:0:-1])))  # r_0, ..., r_s
        ell = lcm(*(r[0] for _, _, r in kinds))
        e = self.center[0] * ell + sum(m * r[1] * (ell // r[0]) for _, m, r in kinds)
        return tuple(kinds), e, ell

    @cached_property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        return tuple((v["weight"], v["genus"]) for v in to_json_dict(self)["vertices"])

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v["neighbors"]) for v in to_json_dict(self)["vertices"])


class Cycle(namedtuple("Cycle", "center branches")):
    """A cycle on the star: the center coefficient and one (part, copies) per branch.

    branches matches DualGraph.branches entry by entry: part lists the
    coefficients on one copy of that branch's chain, center outward, and every
    copy carries them.  coefficients expands the cycle on first read, in
    DualGraph.vertices order.
    """

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        return (self.center,) + tuple(c for part, copies in self.branches for c in part * copies)


def seifert_data(t: BrieskornTriple) -> SeifertData:
    """Compute all Seifert invariants of (a, b, c), checking integrality of g and c_0;
    once per triple object, which keeps the record (see the module docstring)."""
    if "seifert_data" in t.__dict__:
        return t.__dict__["seifert_data"]
    ghat, alpha, lam = zip(*seifert_legs(t))
    beta = tuple(mod_inverse_negation(lam_w, alpha_w) for lam_w, alpha_w in zip(lam, alpha))
    ell = lcm(t.a, t.b, t.c)
    ghat_total = t.D // ell

    two_g = ghat_total - sum(ghat) + 2
    if two_g % 2 != 0 or two_g < 0:
        raise InternalCheckError(f"{t}: central genus from 2g-2 = {two_g - 2} is invalid")
    genus = two_g // 2

    # c_0 = sum ghat_w beta_w / alpha_w + ghat_total / ell over the common
    # denominator ell: each alpha_w divides a_w, which divides ell
    numerator = sum(g_w * b_w * (ell // a_w) for g_w, b_w, a_w in zip(ghat, beta, alpha))
    numerator += ghat_total
    if numerator % ell != 0 or numerator <= 0:
        raise InternalCheckError(
            f"{t}: central weight c_0 = {numerator}/{ell} is not a positive integer"
        )

    sd = t.__dict__["seifert_data"] = SeifertData(
        alpha=alpha,
        lam=lam,
        beta=beta,
        ghat=ghat,
        ghat_total=ghat_total,
        genus=genus,
        center_weight=numerator // ell,
    )
    return sd


def build_dual_graph(sd: SeifertData) -> DualGraph:
    """The star record, in O(sum of chain lengths): one chain per nonempty branch."""
    return DualGraph(
        center=(-sd.center_weight, sd.genus),
        branches=tuple(
            (w + 1, tuple(-c for c in hj_expand(sd.alpha[w], sd.beta[w])), sd.ghat[w])
            for w in range(3)
            if sd.alpha[w] != 1  # empty branch
        ),
    )


def dual_graph(t: BrieskornTriple) -> DualGraph:
    """The star of t, built once per triple object: t keeps it beside its Seifert data."""
    if "dual_graph" not in t.__dict__:
        t.__dict__["dual_graph"] = build_dual_graph(seifert_data(t))
    return t.__dict__["dual_graph"]


def fundamental_cycle(g: DualGraph) -> Cycle:
    """Minimal anti-nef cycle Z_min of the star, in closed form, in O(sum of chain lengths).

    The star is negative definite iff every chain is and the orbifold Euler
    number e < 0 (see DualGraph.chain_kinds).  A cycle with center coefficient
    x that is anti-nef at the chain vertices is >= x r_j / alpha at chain vertex j
    (the chain's form is negative definite), so >= ceil(x r_j / alpha).
    Hence Z_min's center coefficient satisfies sum ceil(x beta/alpha) <= c_0 x;
    the least such x >= 1 with those ceilings, once checked anti-nef, is
    Z_min.  The search stops by x = #chains/|e|, since each ceiling exceeds
    x beta/alpha by less than 1.

    The search skips every x that provably fails.  Consecutive remainders
    are coprime (gcd(r_{j-1}, r_j) = gcd(r_j, r_{j+1}) = ... = gcd(1, 0)), so
    gcd(alpha, beta) = 1.  Summed over the chain kinds, a kind with m
    identical copies, the inequality reads
    sum m ((-x beta) mod alpha) / alpha <= |e| x.  If alpha does not divide
    x, it does not divide x beta, so the kind adds at least m/alpha; hence
    every kind with m/alpha > |e| x forces alpha | x.  That forced set
    only shrinks as x grows, at the thresholds ceil(m / (alpha |e|)).  So x is
    rounded up to a multiple of the forced alphas' lcm, but never past the
    next threshold, and tested; the result is still the least x that passes.

    Copies of a chain get equal coefficients, so positivity and anti-nefness
    are checked on one copy per kind and at the center, where the pairing is
    -c_0 x + sum m z_1.  g keeps that star record once it passes; a star that fails
    keeps nothing and raises on every call.
    """
    if "fundamental_cycle" in g.__dict__:
        return g.__dict__["fundamental_cycle"]
    star = g.chain_kinds
    if star is None or star[1] >= 0:
        why = "a chain is not" if star is None else f"e = {star[1]}/{star[2]} >= 0"
        raise InternalCheckError(f"star is not negative definite ({why})")
    kinds, e, ell = star
    terms = [(m, r[1], r[0]) for _, m, r in kinds]
    c0 = -g.center[0]

    # ceil(m / (alpha |e|)) with |e| = -e / ell
    thresholds = [(-(m * (ell // alpha) // e), alpha) for m, _, alpha in terms]
    x = 1
    while True:
        forced = [(threshold, alpha) for threshold, alpha in thresholds if threshold > x]
        if forced:
            step = lcm(*(alpha for _, alpha in forced))
            x = min(-(-x // step) * step, min(threshold for threshold, _ in forced))
        if sum(m * -(-x * beta // alpha) for m, beta, alpha in terms) <= c0 * x:
            break
        x += 1

    parts = {}
    anti_nef = True
    center_pairing = -c0 * x
    for chain, m, r in kinds:
        z = [x, *(-(-x * r_j // r[0]) for r_j in r[1:]), 0]  # center, chain, past the tip
        anti_nef = anti_nef and min(z[:-1]) >= 1 and all(
            z[j] * w + z[j - 1] + z[j + 1] <= 0 for j, w in enumerate(chain, 1)
        )
        parts[chain] = tuple(z[1:-1])
        center_pairing += m * z[1]
    if not anti_nef or center_pairing > 0:
        raise InternalCheckError("closed-form fundamental cycle is not positive and anti-nef")
    g.__dict__["fundamental_cycle"] = Cycle(x, tuple((parts[c], m) for _, c, m in g.branches))
    return g.__dict__["fundamental_cycle"]


def laufer_start(g: DualGraph) -> Cycle:
    """A lower bound L <= Z_min on the star, in integers, in O(sum of chain lengths).

    Z_min is unique, so the star's automorphisms, which permute the m copies of
    a chain kind, fix it: Z_min = sum over vertex classes O of n_O sum_{w in O}
    E_w*, with n_O = -Z_min.E_w >= 0 and some n_O >= 1.  -I^-1 is 1/|e| at the
    center, r_j/(alpha |e|) from there to chain position j, r_u r_w/(alpha_A
    alpha_B |e|) across chains and at least that on one chain.  So every class
    sum, and Z_min, is >= (r_u/alpha) mu/|e| at u and mu/|e| at the center,
    with mu = min(1, min over the kinds of m/alpha).
    """
    if not is_negative_definite_tree(g):
        raise InternalCheckError("star is not negative definite")
    kinds, e, ell = g.chain_kinds
    mu_ell = min([ell] + [m * (ell // r[0]) for _, m, r in kinds])  # an integer
    # ceil(r_j mu / (alpha |e|)) with |e| = -e / ell, at least 1 as r_j mu > 0
    parts = {c: tuple(-(r_j * mu_ell // (r[0] * e)) for r_j in r[1:]) for c, _, r in kinds}
    return Cycle(-(mu_ell // e), tuple((parts[c], m) for _, c, m in g.branches))


def laufer_cycle(g: DualGraph, y: Cycle) -> Cycle:
    """Laufer's computation sequence from L = laufer_start(g), in batches on the star.

    The oracle for fundamental_cycle.  A step bumps every copy of a vertex
    class (the center, or one position of a branch's chain) at once: a run of
    valid single bumps, as copies are never adjacent and keep equal pairings.
    From L <= Z_min, in any order of bumps, every cycle stays below any positive
    anti-nef Y (a bump at i with z_i = y_i would give Y.E_i >= Z.E_i > 0) and
    the sequence ends at Z_min; with y the closed-form cycle, within sum(y - L)
    class steps.  A start above y raises; an L above Z_min raises or ends above.
    """
    start = laufer_start(g)
    z = [start.center, *(c for part, _ in start.branches for c in part)]
    top = [y.center, *(c for part, _ in y.branches for c in part)]
    for i, (c, t) in enumerate(zip(z, top)):
        if c > t:
            raise InternalCheckError(f"Laufer's start {c} is above its bound {t} at class {i}")
    # class 0 is the center, then each branch's chain, center outward; bumping
    # class i adds d to the pairing of class k for each (k, d) in effects[i],
    # and pairing[i] = Z . E_i on one copy of class i
    pairing, effects = [g.center[0] * z[0]], [[(0, g.center[0])]]
    for _, chain, copies in g.branches:
        previous = 0
        for w in chain:
            i, d = len(pairing), 1 if previous else copies  # d: vertices next to one previous
            effects[previous].append((i, 1))
            effects.append([(i, w), (previous, d)])
            pairing[previous] += d * z[i]
            pairing.append(w * z[i] + z[previous])
            previous = i
    worklist = [i for i, p in enumerate(pairing) if p > 0]
    bound = sum(top) - sum(z)
    steps = 0
    while worklist:
        i = worklist.pop()
        if pairing[i] <= 0:
            continue
        z[i] += 1
        for k, d in effects[i]:
            pairing[k] += d
            if pairing[k] > 0:
                worklist.append(k)
        steps += 1
        if steps > bound:
            raise InternalCheckError(f"Laufer's sequence passed its bound of {bound} steps")
    rest = iter(z[1:])
    return Cycle(z[0], tuple((tuple(next(rest) for _ in c), m) for _, c, m in g.branches))


def arithmetic_genus(g: DualGraph, z: Cycle) -> tuple[int, int]:
    """(p_a(Z), Z^2), with p_a(Z) = 1 + (Z^2 + Z.K)/2 from the intersection form.

    Z^2 = sum z_i^2 w_i + 2 sum over edges z_i z_j and Z.K = sum z_i K.E_i,
    summed over one copy of each branch's chain times its copies: the star
    record gives every copy the same coefficients.
    """
    (w0, genus), x = g.center, z.center
    zz = w0 * x * x
    zk = (-w0 + 2 * genus - 2) * x
    for (_, chain, copies), (zc, _) in zip(g.branches, z.branches):
        zz += copies * (
            sum(w * c * c for w, c in zip(chain, zc)) + 2 * sum(map(mul, (x, *zc), zc))
        )
        zk += copies * sum((-w - 2) * c for w, c in zip(chain, zc))
    if (zz + zk) % 2 != 0:
        raise InternalCheckError("Z^2 + Z.K is odd; adjunction violated")
    return 1 + (zz + zk) // 2, zz


def fundamental_genus_oracle(g: DualGraph) -> int:
    """p_f = p_a(Z_min), by adjunction on the closed-form fundamental cycle g keeps."""
    return arithmetic_genus(g, fundamental_cycle(g))[0]


def _formula_terms(t: BrieskornTriple) -> tuple[int, int, int]:
    """(lambda_3, alpha_3, alpha_1 alpha_2 alpha_3) from gcds of (a, b, c), by its own gcds and
    not ring.seifert_legs: it is the formula side of verify's formula-vs-adjunction and
    -Z^2 checks, whose other side is the star built from seifert_data."""
    a, b, c = t.a, t.b, t.c
    ab = lcm(a, b)
    g = gcd(c, ab)
    alpha_3 = c // g
    return ab // g, alpha_3, a // gcd(a, lcm(b, c)) * (b // gcd(b, lcm(a, c))) * alpha_3


def fundamental_genus_formula(t: BrieskornTriple) -> int:
    """Closed form for p_f, valid when lambda_3 <= alpha_1*alpha_2*alpha_3; it reads only
    gcds of (a, b, c), never the Seifert record or the star."""
    lam_3, alpha_3, alpha_product = _formula_terms(t)
    if lam_3 > alpha_product:
        raise FormulaInapplicableError(f"{t}: lambda_3 = {lam_3} > alpha = {alpha_product}")
    numerator = t.a * t.b - t.a - t.b - (2 * -(-lam_3 // alpha_3) - 1) * gcd(t.a, t.b)
    if numerator % 2 != 0:
        raise InternalCheckError(f"{t}: p_f numerator {numerator} is odd")
    pf = numerator // 2 + 1
    if pf < 0:
        raise InternalCheckError(f"{t}: p_f = {pf} < 0")
    return pf


def fundamental_genus(t: BrieskornTriple) -> int:
    """p_f via the closed form when applicable, otherwise via Z + adjunction."""
    try:
        return fundamental_genus_formula(t)
    except FormulaInapplicableError:
        return fundamental_genus_oracle(dual_graph(t))


def expected_minus_z_squared(t: BrieskornTriple) -> int:
    """-Z_E^2 = gcd(a, b) * ceil(lambda_3 / alpha_3), with the p_f formula's hypothesis."""
    lam_3, alpha_3, _ = _formula_terms(t)
    return gcd(t.a, t.b) * -(-lam_3 // alpha_3)


def is_negative_definite_tree(g: DualGraph) -> bool:
    """Exact tip-to-center elimination on the star, once per chain kind.

    Eliminating leaves first creates no fill-in, and the pivots are the ratios
    of consecutive leading minors in that order, so the form is negative
    definite iff every pivot is < 0: each chain's, then the center's, which is
    e (see DualGraph.chain_kinds).  Its oracle is the dense Bareiss minor test
    in tests/test_resolution.py.
    """
    star = g.chain_kinds
    return star is not None and star[1] < 0


def to_dot(g: DualGraph) -> str:
    """Graphviz rendering of to_json_dict's vertices; byte-stable for identical input."""
    vertices = to_json_dict(g)["vertices"]
    lines = ["graph {"]
    for i, vertex in enumerate(vertices):
        if vertex["branch"] is None:
            label = f"E0 (g={vertex['genus']}, {vertex['weight']})"
        else:
            w, _, position = vertex["branch"]
            label = f"E{w},{position + 1} ({vertex['weight']})"
        lines.append(f'  n{i} [label="{label}"];')
    for i, vertex in enumerate(vertices):
        lines.extend(f"  n{i} -- n{j};" for j in vertex["neighbors"] if i < j)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: DualGraph) -> dict:
    """Canonical serialization, walked from the star, and the one home of the vertex order
    (DualGraph): each chain vertex with its branch [w, copy, position]."""
    weight, genus = g.center
    vertices = [{"branch": None, "genus": genus, "neighbors": [], "weight": weight}]
    for w, chain, copies in g.branches:
        for copy in range(copies):
            previous = 0
            for position, weight in enumerate(chain):
                vertices[previous]["neighbors"].append(len(vertices))
                vertices.append(
                    dict(branch=[w, copy, position], genus=0, neighbors=[previous], weight=weight)
                )
                previous = len(vertices) - 1
    return {"vertices": vertices}
