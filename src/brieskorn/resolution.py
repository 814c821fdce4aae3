"""Weighted dual graph of the minimal good resolution, and the fundamental cycle.

The graph is a star: a central curve of genus g and self-intersection -c_0,
with ghat_1 + ghat_2 + ghat_3 chains of rational curves attached.  For each
w the chain weights are the HJ expansion of alpha_w / beta_w, repeated in
ghat_w identical copies; the branch is empty when alpha_w = 1.

The fundamental cycle is computed in closed form on the star: after an
O(#chains) definiteness check (the orbifold Euler number e must be < 0), the
center coefficient is the least x whose chain ceilings ceil(x r_j / alpha)
keep the center pairing <= 0, and the result is checked anti-nef.  The search
for x skips every x that a chain kind provably rules out (gcd(alpha, beta) = 1
forces alpha | x while the kind's m copies give m/alpha > |e| x), so it tests
a few candidates instead of every x up to the center coefficient.  Laufer's
computation sequence (start at the all-ones cycle and bump any coefficient
whose pairing with the cycle is still positive) is its oracle in `verify`,
with a step bound proved from the closed-form cycle.  Definiteness of the
whole graph is checked by exact leaf-to-center elimination on the tree, with
the dense Bareiss minor test as its oracle in the tests.  Neither seifert_data
nor fundamental_genus caches: classify.invariants calls each once per triple.
build_dual_graph and fundamental_cycle keep their 128 latest results, so a
verify walk or a scan does not hold every graph it has built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

from .errors import FormulaInapplicableError, InternalCheckError
from .numtheory import hj_expand, mod_inverse_negation
from .ring import BrieskornTriple


@dataclass(frozen=True)
class SeifertData:
    """Numerical data of the star-shaped resolution graph (one field per symbol)."""

    triple: BrieskornTriple
    alpha: tuple[int, int, int]
    lam: tuple[int, int, int]
    beta: tuple[int, int, int]
    ghat: tuple[int, int, int]  # pairwise gcds: (b,c), (a,c), (a,b)
    ghat_total: int  # abc / lcm(a,b,c)
    genus: int  # genus of the central curve
    center_weight: int  # c_0; central self-intersection is -c_0


@dataclass(frozen=True)
class DualGraph:
    """Vertices carry (self_intersection, genus); vertex 0 is the central curve.

    branch_index[i] is (w, copy, position) for chain vertices, None for the
    center.  Vertices are ordered: center, then w ascending, copies in order,
    chain positions ascending (position 0 attaches to the center).
    """

    vertices: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    branch_index: tuple[tuple[int, int, int] | None, ...]


@dataclass(frozen=True)
class Cycle:
    """Integer coefficients on the vertices of a dual graph."""

    coefficients: tuple[int, ...]


def seifert_data(t: BrieskornTriple) -> SeifertData:
    """Compute all Seifert invariants of (a, b, c), checking integrality of g and c_0."""
    exps = (t.a, t.b, t.c)
    lcms = (lcm(t.b, t.c), lcm(t.a, t.c), lcm(t.a, t.b))
    alpha = tuple(a_w // gcd(a_w, l_w) for a_w, l_w in zip(exps, lcms))
    lam = tuple(l_w // gcd(a_w, l_w) for a_w, l_w in zip(exps, lcms))
    beta = tuple(mod_inverse_negation(lam_w, alpha_w) for lam_w, alpha_w in zip(lam, alpha))
    ghat = (gcd(t.b, t.c), gcd(t.a, t.c), gcd(t.a, t.b))
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

    return SeifertData(
        triple=t,
        alpha=alpha,
        lam=lam,
        beta=beta,
        ghat=ghat,
        ghat_total=ghat_total,
        genus=genus,
        center_weight=numerator // ell,
    )


@lru_cache(maxsize=128)
def build_dual_graph(sd: SeifertData) -> DualGraph:
    vertices: list[tuple[int, int]] = [(-sd.center_weight, sd.genus)]
    neighbors: list[list[int]] = [[]]
    branch_index: list[tuple[int, int, int] | None] = [None]

    for w in range(3):
        if sd.alpha[w] == 1:
            continue  # empty branch
        chain = hj_expand(sd.alpha[w], sd.beta[w]).expansion
        for copy in range(sd.ghat[w]):
            previous = 0
            for position, c in enumerate(chain):
                idx = len(vertices)
                vertices.append((-c, 0))
                neighbors.append([previous])
                neighbors[previous].append(idx)
                branch_index.append((w + 1, copy, position))
                previous = idx

    return DualGraph(
        vertices=tuple(vertices),
        neighbors=tuple(tuple(adj) for adj in neighbors),
        branch_index=tuple(branch_index),
    )


def dual_graph(t: BrieskornTriple) -> DualGraph:
    return build_dual_graph(seifert_data(t))


@lru_cache(maxsize=128)
def fundamental_cycle(g: DualGraph) -> Cycle:
    """Minimal anti-nef cycle Z_min of the star, in closed form.

    For chain weights b_1..b_s (center outward), the continuant remainders
    r_{s+1} = 0, r_s = 1, r_{j-1} = b_j r_j - r_{j+1} give alpha = r_0 and
    beta = r_1.  The star is negative definite iff every r_j > 0 and the
    orbifold Euler number e = -c_0 + sum beta/alpha over the chains is < 0.
    A cycle with center coefficient x that is anti-nef at the chain vertices
    is >= x r_j / alpha at chain vertex j (the chain's form is negative
    definite), so >= ceil(x r_j / alpha).  Hence Z_min's center coefficient
    satisfies sum ceil(x beta/alpha) <= c_0 x; the least such x >= 1 with
    those ceilings, once checked anti-nef, is Z_min.  The search stops by
    x = #chains/|e|, since each ceiling exceeds x beta/alpha by less than 1.

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
    """
    chains: dict[tuple[int, int], list[int]] = {}
    for i, info in enumerate(g.branch_index):
        if info is not None:
            chains.setdefault(info[:2], []).append(i)
    weights = {key: tuple(-g.vertices[i][0] for i in chain) for key, chain in chains.items()}
    copies = Counter(weights.values())
    remainders: dict[tuple[int, ...], list[int]] = {}
    for kind in copies:
        r = [0, 1]  # r_{s+1}, r_s, then r_{s-1}, ..., r_0
        for b in reversed(kind):
            r.append(b * r[-1] - r[-2])
        remainders[kind] = r[:0:-1]  # r_0, ..., r_s
    terms = [(m, remainders[w][1], remainders[w][0]) for w, m in copies.items()]
    c0 = -g.vertices[0][0]
    e = -c0 + sum(Fraction(m * beta, alpha) for m, beta, alpha in terms)
    if e >= 0 or any(min(r) <= 0 for r in remainders.values()):
        raise InternalCheckError(f"star is not negative definite (e = {e})")

    thresholds = [(ceil(m / (alpha * -e)), alpha) for m, _, alpha in terms]
    x = 1
    while True:
        forced = [(threshold, alpha) for threshold, alpha in thresholds if threshold > x]
        if forced:
            step = lcm(*(alpha for _, alpha in forced))
            x = min(-(-x // step) * step, min(threshold for threshold, _ in forced))
        if sum(m * -(-x * beta // alpha) for m, beta, alpha in terms) <= c0 * x:
            break
        x += 1
    z = [x] * len(g.vertices)
    for key, chain in chains.items():
        r = remainders[weights[key]]
        for j, i in enumerate(chain, 1):
            z[i] = -(-x * r[j] // r[0])
    cycle = Cycle(tuple(z))
    if min(z) < 1 or any(cycle_pairing(g, cycle, i) > 0 for i in range(len(z))):
        raise InternalCheckError("closed-form fundamental cycle is not positive and anti-nef")
    return cycle


def laufer_cycle(g: DualGraph) -> Cycle:
    """Laufer's computation sequence from the all-ones cycle: the oracle for fundamental_cycle.

    Every cycle Z of the sequence stays below any positive anti-nef cycle Y:
    a bump at i with z_i = y_i would give Y.E_i >= Z.E_i > 0.  So with Y the
    closed-form cycle, which is checked anti-nef before it is returned, the
    sequence stops within sum(Y) - n steps.  Y only bounds the steps: a wrong
    Y can make this raise, never return a different cycle.
    """
    n = len(g.vertices)
    z = [1] * n
    # pairing[i] = Z . E_i, maintained incrementally; the minimal anti-nef
    # cycle is unique, so the order of bumps does not matter
    pairing = [g.vertices[i][0] + len(g.neighbors[i]) for i in range(n)]
    worklist = [i for i in range(n) if pairing[i] > 0]
    cap = sum(fundamental_cycle(g).coefficients) - n
    steps = 0
    while worklist:
        i = worklist.pop()
        if pairing[i] <= 0:
            continue
        z[i] += 1
        pairing[i] += g.vertices[i][0]
        if pairing[i] > 0:
            worklist.append(i)
        for j in g.neighbors[i]:
            pairing[j] += 1
            if pairing[j] > 0:
                worklist.append(j)
        steps += 1
        if steps > cap:
            raise InternalCheckError(
                f"Laufer's sequence passed its bound of {cap} steps"
            )
    return Cycle(tuple(z))


def cycle_pairing(g: DualGraph, z: Cycle, i: int) -> int:
    """Z . E_i."""
    w, _ = g.vertices[i]
    return z.coefficients[i] * w + sum(z.coefficients[j] for j in g.neighbors[i])


def cycle_self_intersection(g: DualGraph, z: Cycle) -> int:
    return sum(z.coefficients[i] * cycle_pairing(g, z, i) for i in range(len(g.vertices)))


def canonical_degree(g: DualGraph, i: int) -> int:
    """K . E_i by adjunction: -E_i^2 + 2*genus(E_i) - 2."""
    w, gen = g.vertices[i]
    return -w + 2 * gen - 2


def fundamental_genus_oracle(g: DualGraph) -> int:
    """p_a(Z_E) = 1 + (Z^2 + Z.K)/2 from the intersection form."""
    z = fundamental_cycle(g)
    zz = cycle_self_intersection(g, z)
    zk = sum(z.coefficients[i] * canonical_degree(g, i) for i in range(len(g.vertices)))
    if (zz + zk) % 2 != 0:
        raise InternalCheckError("Z^2 + Z.K is odd; adjunction violated")
    return 1 + (zz + zk) // 2


def fundamental_genus_formula(t: BrieskornTriple) -> int:
    """Closed form for p_f, valid when lambda_3 <= alpha_1*alpha_2*alpha_3."""
    sd = seifert_data(t)
    alpha_product = sd.alpha[0] * sd.alpha[1] * sd.alpha[2]
    if sd.lam[2] > alpha_product:
        raise FormulaInapplicableError(
            f"{t}: lambda_3 = {sd.lam[2]} > alpha = {alpha_product}"
        )
    ceil_ratio = -(-sd.lam[2] // sd.alpha[2])
    numerator = t.a * t.b - t.a - t.b - (2 * ceil_ratio - 1) * gcd(t.a, t.b)
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
    """-Z_E^2 = ghat_3 * ceil(lambda_3 / alpha_3) (with the p_f formula's hypothesis)."""
    sd = seifert_data(t)
    return sd.ghat[2] * (-(-sd.lam[2] // sd.alpha[2]))


def is_negative_definite_tree(g: DualGraph) -> bool:
    """Exact leaf-to-center elimination on the tree: O(V) Fraction steps.

    Eliminating leaves first creates no fill-in, so vertex i's pivot is
    w_i - sum(1 / pivot_c) over its children c.  The pivots are the ratios
    of consecutive leading minors in that order, so the form is negative
    definite iff every pivot is < 0.  Its oracle is the dense Bareiss minor
    test in tests/test_resolution.py.
    """
    n = len(g.vertices)
    parent: list[int | None] = [None] * n
    order = [0]
    for i in order:
        for j in g.neighbors[i]:
            if j != 0 and parent[j] is None:
                parent[j] = i
                order.append(j)
    if len(order) != n or sum(map(len, g.neighbors)) != 2 * (n - 1):
        raise InternalCheckError("dual graph is not a tree")
    pivot = [Fraction(w) for w, _ in g.vertices]
    for i in reversed(order):
        if pivot[i] >= 0:
            return False
        if parent[i] is not None:
            pivot[parent[i]] -= 1 / pivot[i]
    return True


def to_dot(g: DualGraph) -> str:
    """Graphviz rendering; byte-stable for identical input."""
    lines = ["graph {"]
    for i, (weight, genus) in enumerate(g.vertices):
        info = g.branch_index[i]
        if info is None:
            label = f"E0 (g={genus}, {weight})"
        else:
            w, _, position = info
            label = f"E{w},{position + 1} ({weight})"
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(len(g.vertices)):
        for j in g.neighbors[i]:
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: DualGraph) -> dict:
    """Canonical serialization: vertices in construction order."""
    return {
        "vertices": [
            {
                "branch": None
                if g.branch_index[i] is None
                else list(g.branch_index[i]),
                "genus": g.vertices[i][1],
                "neighbors": sorted(g.neighbors[i]),
                "weight": g.vertices[i][0],
            }
            for i in range(len(g.vertices))
        ]
    }
