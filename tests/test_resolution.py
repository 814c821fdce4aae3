import gc
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import ceil, prod

import pytest
from triples import off_golden, triples

from brieskorn import resolution
from brieskorn.errors import FormulaInapplicableError, InternalCheckError
from brieskorn.resolution import (
    Cycle,
    DualGraph,
    SeifertData,
    arithmetic_genus,
    dual_graph,
    fundamental_cycle,
    fundamental_genus,
    fundamental_genus_formula,
    fundamental_genus_oracle,
    is_negative_definite_tree,
    laufer_cycle,
    laufer_start,
    seifert_data,
)
from brieskorn.ring import BrieskornTriple, new_triple


def sample_to_120():
    rng = random.Random(120)
    for _ in range(50):
        yield new_triple(*sorted(rng.randint(30, 120) for _ in range(3)))


def star(center: int, chains: list[list[int]]) -> DualGraph:
    """A hand-built star of genus-0 curves; each chain is listed center outward.

    Identical chains become one branch, numbered in order of first appearance,
    with their count as its copies.
    """
    copies = Counter(map(tuple, chains))
    return DualGraph((center, 0), tuple((w, *kind) for w, kind in enumerate(copies.items(), 1)))


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    n = len(g.vertices)
    return [
        [g.vertices[i][0] if i == j else int(j in g.neighbors[i]) for j in range(n)]
        for i in range(n)
    ]


def leading_principal_minors(matrix: list[list[int]]) -> list[int]:
    """All leading principal minors by fraction-free (Bareiss) elimination.

    Stops early (padding with the zero determinant) if a pivot vanishes,
    which already disqualifies definiteness.
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        minors.append(pivot)
        if pivot == 0:
            minors.extend(0 for _ in range(n - k - 1))
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Sign test (-1)^k * minor_k > 0 on all leading principal minors: the dense
    oracle of resolution.is_negative_definite_tree."""
    minors = leading_principal_minors(matrix)
    return all(
        (minor > 0 if k % 2 == 1 else minor < 0) for k, minor in enumerate(minors)
    )


def cycle_pairing(g: DualGraph, z: Cycle, i: int) -> int:
    """Z . E_i on the expanded graph."""
    w, _ = g.vertices[i]
    return z.coefficients[i] * w + sum(z.coefficients[j] for j in g.neighbors[i])


def cycle_self_intersection(g: DualGraph, z: Cycle) -> int:
    return sum(z.coefficients[i] * cycle_pairing(g, z, i) for i in range(len(g.vertices)))


def canonical_degree(g: DualGraph, i: int) -> int:
    """K . E_i by adjunction: -E_i^2 + 2*genus(E_i) - 2."""
    w, gen = g.vertices[i]
    return -w + 2 * gen - 2


def laufer_per_vertex(g: DualGraph, y: Cycle) -> tuple[int, ...]:
    """Laufer's computation sequence one vertex at a time on the expanded graph: the
    oracle of the batched resolution.laufer_cycle, returned as its coefficients.  As
    there, every cycle of the sequence stays below the positive anti-nef y, so it
    stops within sum(y) - n steps."""
    n = len(g.vertices)
    z = [1] * n
    pairing = [g.vertices[i][0] + len(g.neighbors[i]) for i in range(n)]
    worklist = [i for i in range(n) if pairing[i] > 0]
    cap = sum(y.coefficients) - n
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
            raise InternalCheckError(f"Laufer's sequence passed its bound of {cap} steps")
    return tuple(z)


def ones(g: DualGraph) -> Cycle:
    return Cycle(1, tuple(((1,) * len(chain), copies) for _, chain, copies in g.branches))


def exact_inverse(matrix: list[list[int]]) -> list[list[Fraction]]:
    """The inverse by Gauss-Jordan elimination over Fraction, on sparse rows.  The
    pivots of a definite matrix never vanish, so no row is swapped; pivoting from
    the last vertex back to the center takes each chain from its tip, which keeps
    the rows short on a star."""
    n = len(matrix)
    # row i of [matrix | identity] as {column: nonzero entry}
    m = [
        {j: Fraction(x) for j, x in enumerate(row) if x} | {n + i: Fraction(1)}
        for i, row in enumerate(matrix)
    ]
    for k in reversed(range(n)):
        pivot = m[k][k]
        m[k] = {j: x / pivot for j, x in m[k].items()}
        for i, row in enumerate(m):
            factor = row.get(k)
            if i != k and factor:
                for j, y in m[k].items():
                    row[j] = row.get(j, 0) - factor * y
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in m]


def vertex_classes(g: DualGraph) -> list:
    """Each vertex's class, in DualGraph.vertices order: None for the center, else
    (chain, position), shared by every copy of a chain kind across branches."""
    return [None] + [
        (chain, j)
        for _, chain, copies in g.branches
        for _ in range(copies)
        for j in range(len(chain))
    ]


def adjunction_per_vertex(g: DualGraph) -> int:
    """p_a(Z) = 1 + (Z^2 + Z.K)/2 vertex by vertex on the expanded graph: the
    oracle of the star sums in resolution.fundamental_genus_oracle."""
    z = fundamental_cycle(g)
    zk = sum(c * canonical_degree(g, i) for i, c in enumerate(z.coefficients))
    return 1 + (cycle_self_intersection(g, z) + zk) // 2


# e = -1 + 1/2 + 1/2 = 0 (semi-definite), e = -1 + 3/2 > 0 (indefinite),
# e = -2 + 4/2 = 0 with one kind in four copies, and a chain that is not
# definite on its own ([-1, -1] has alpha = r_0 = 0); Bareiss classifies
# both lists in TestNegativeDefiniteness
NOT_NEGATIVE_DEFINITE = [
    star(-1, [[-2], [-2]]),
    star(-1, [[-2], [-2], [-2]]),
    star(-2, [[-2]] * 4),
    star(-5, [[-1, -1]]),
]
# multi-copy stars past e = 0: e = -3 + 4/2 = -1, e = -2 + 5/3 = -1/3, and
# two kinds, e = -4 + 2 * 1/2 + 3 * 2/3 = -1
NEGATIVE_DEFINITE = [
    star(-3, [[-2]] * 4),
    star(-2, [[-3]] * 5),
    star(-4, [[-2]] * 2 + [[-2, -2]] * 3),
]


# the step-cap and center-coefficient regressions of TestFundamentalCycle
REGRESSIONS = [(35, 47, 52), (97, 101, 103), (107, 116, 119), (91, 94, 115)]


class TestSeifertData:
    def test_347(self):
        sd = seifert_data(new_triple(3, 4, 7))
        assert sd.alpha == (3, 4, 7)
        assert sd.lam == (28, 21, 12)
        assert sd.beta == (2, 3, 4)
        assert sd.ghat == (1, 1, 1)
        assert sd.ghat_total == 1
        assert sd.genus == 0
        assert sd.center_weight == 2

    def test_235(self):
        sd = seifert_data(new_triple(2, 3, 5))
        assert sd.alpha == (2, 3, 5)
        assert sd.genus == 0
        assert sd.center_weight == 2

    def test_genus_can_be_positive(self):
        # (2, 4, 8): pairwise gcds (4, 2, 2), ghat_total = 8, 2g - 2 = 0
        sd = seifert_data(new_triple(2, 4, 8))
        assert sd.genus == 1

    def test_a_triple_keeps_its_record_without_a_reference_cycle(self):
        # t keeps its Seifert data and its star, and the star its Z; none points
        # back at its owner: with the collector off, only reference counting can
        # free them.  Records are tuples, which take no weak reference, so the
        # live ones are counted; one still referenced anywhere keeps its count up
        kinds = (BrieskornTriple, SeifertData, DualGraph, Cycle)

        def live():
            return Counter(type(o) for o in gc.get_objects() if type(o) in kinds)

        gc.disable()
        try:
            before = live()
            t = new_triple(3, 4, 7)
            seifert_data(t)
            assert vars(t)["seifert_data"] is seifert_data(t)
            g = dual_graph(t)
            assert vars(t)["dual_graph"] is g
            assert fundamental_cycle(g) is vars(g)["fundamental_cycle"]
            assert live() - before == Counter(kinds)
            del t, g
            assert live() == before
        finally:
            gc.enable()

    def test_integrality_holds_on_range(self):
        for t in triples(15):
            sd = seifert_data(t)
            assert sd.genus >= 0
            assert sd.center_weight >= 1


class TestDualGraph:
    def test_branch_count_matches_ghat(self):
        for t in triples(10):
            sd = seifert_data(t)
            g = dual_graph(t)
            expected = sum(gw for gw, aw in zip(sd.ghat, sd.alpha) if aw > 1)
            assert len(g.neighbors[0]) == expected

    def test_intersection_matrix_symmetric(self):
        for t in [new_triple(3, 4, 7), new_triple(2, 4, 8), new_triple(4, 6, 9)]:
            m = intersection_matrix(dual_graph(t))
            n = len(m)
            assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
            assert all(m[i][i] <= -1 for i in range(n))


class TestFundamentalCycle:
    def test_347(self):
        g = dual_graph(new_triple(3, 4, 7))
        z = fundamental_cycle(g)
        assert z.coefficients == (12, 8, 4, 9, 6, 3, 7, 2)
        assert cycle_self_intersection(g, z) == -2

    def test_e8(self):
        g = dual_graph(new_triple(2, 3, 5))
        z = fundamental_cycle(g)
        assert z.coefficients == (6, 3, 4, 2, 5, 4, 3, 2)
        assert cycle_self_intersection(g, z) == -2

    def test_anti_nef_and_minimal(self):
        for t in triples(9):
            g = dual_graph(t)
            z = fundamental_cycle(g)
            assert all(coefficient >= 1 for coefficient in z.coefficients)
            assert all(cycle_pairing(g, z, i) <= 0 for i in range(len(g.vertices)))

    def test_self_intersection_negative(self):
        for t in triples(9):
            g = dual_graph(t)
            assert cycle_self_intersection(g, fundamental_cycle(g)) < 0

    def test_the_public_sequence_computes_z_once(self, monkeypatch):
        # Z is the one Cycle record built here: the triple keeps its star, the
        # star its Z, and the oracle and the record's adjunction p_f read both
        built = []
        monkeypatch.setattr(resolution, "Cycle", lambda *f: built.append(f) or Cycle(*f))
        t = new_triple(10, 12, 15)  # outside the p_f formula's hypothesis
        g = dual_graph(t)
        z = fundamental_cycle(g)
        assert fundamental_genus_oracle(g) == 23
        assert len(built) == 1
        assert fundamental_cycle(g) is z
        assert dual_graph(t) is g
        assert fundamental_genus(t) == 23 and len(built) == 1

    @pytest.mark.parametrize(
        "triple, bumps",
        # both once stopped at the old heuristic step cap sum(|w|) * n^2
        [((35, 47, 52), 4014), ((97, 101, 103), 26585)],
    )
    def test_past_the_old_step_cap(self, triple, bumps):
        g = dual_graph(new_triple(*triple))
        z = fundamental_cycle(g)
        assert z == laufer_cycle(g, z)
        assert sum(z.coefficients) - len(g.vertices) == bumps

    @pytest.mark.parametrize(
        "triple, center, total",
        # every chain kind is forced at x = 1, so the search jumps to the
        # least threshold, which is the center coefficient a * b
        [((107, 116, 119), 12412, 693596), ((91, 94, 115), 8554, 23004)],
    )
    def test_large_center_coefficient(self, triple, center, total):
        g = dual_graph(new_triple(*triple))
        z = fundamental_cycle(g)
        assert z == laufer_cycle(g, z)
        assert (z.coefficients[0], sum(z.coefficients)) == (center, total)

    def test_closed_form_matches_laufer_on_a_sample_to_120(self):
        for t in sample_to_120():
            g = dual_graph(t)
            z = fundamental_cycle(g)
            assert z == laufer_cycle(g, z), t

    def test_batches_match_the_per_vertex_sequence(self):
        regressions = [new_triple(*t) for t in REGRESSIONS]
        graphs = [dual_graph(t) for t in [*triples(25), *sample_to_120(), *regressions]]
        for g in graphs + NEGATIVE_DEFINITE:
            z = fundamental_cycle(g)
            assert laufer_cycle(g, z).coefficients == laufer_per_vertex(g, z), g

    def test_a_bound_below_z_min_raises(self):
        g = dual_graph(new_triple(3, 4, 7))
        with pytest.raises(InternalCheckError, match="passed its bound of 0 steps"):
            laufer_per_vertex(g, ones(g))
        # L's center is 6 against Z's 12 here, so the sequence needs steps
        g = dual_graph(new_triple(30, 40, 50))
        with pytest.raises(InternalCheckError, match="passed its bound of 0 steps"):
            laufer_cycle(g, laufer_start(g))

    def test_a_start_above_the_bound_raises(self):
        # L = Z_min here, with 12 at the center
        g = dual_graph(new_triple(3, 4, 7))
        message = "^Laufer's start 12 is above its bound 1 at class 0$"
        with pytest.raises(InternalCheckError, match=message):
            laufer_cycle(g, ones(g))

    def test_not_negative_definite_star_raises(self):
        # a star that fails keeps no Z, so the second call raises as the first did
        for g in NOT_NEGATIVE_DEFINITE:
            for lower_or_minimal in (laufer_start, fundamental_cycle, fundamental_cycle):
                with pytest.raises(InternalCheckError, match="not negative definite"):
                    lower_or_minimal(g)

    def test_multi_copy_stars_match_laufer(self):
        for g in NEGATIVE_DEFINITE:
            z = fundamental_cycle(g)
            assert z == laufer_cycle(g, z), g

    def test_theta_b_squared_star_without_its_expansion(self):
        # b = c: ghat_1 = 840 copies of an 838-vertex chain, V = 703,921
        t = new_triple(839, 840, 840)
        g = dual_graph(t)
        z = fundamental_cycle(g)
        assert laufer_cycle(g, z) == z
        assert arithmetic_genus(g, z)[0] == fundamental_genus_formula(t) == 350703
        assert "coefficients" not in vars(z)
        coefficients = z.coefficients
        assert (len(coefficients), coefficients[0], sum(coefficients)) == (703921, 839, 295295279)
        assert fundamental_genus_oracle(g) == 350703
        assert is_negative_definite_tree(g)
        assert not {"vertices", "neighbors"} & vars(g).keys()


class TestLauferStart:
    def test_exact_inverse_of_a_small_matrix(self):
        assert exact_inverse([[2, -1], [-1, 2]]) == [
            [Fraction(2, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(2, 3)],
        ]

    def test_between_the_dual_basis_bound_and_z_min(self):
        # Z_min is a nonnegative integral sum of class sums of dual cycles with
        # some coefficient >= 1, so ceil(min over classes) <= Z_min; L must stay
        # below that ceiling at every vertex
        for g in [*map(dual_graph, triples(12)), *NEGATIVE_DEFINITE]:
            inverse = exact_inverse([[-x for x in row] for row in intersection_matrix(g)])
            sums = defaultdict(lambda: [0] * len(inverse))
            for w, key in enumerate(vertex_classes(g)):
                sums[key] = [s + row[w] for s, row in zip(sums[key], inverse)]
            bound = [ceil(min(column)) for column in zip(*sums.values())]
            start, z = laufer_start(g).coefficients, fundamental_cycle(g).coefficients
            assert all(s <= b <= x for s, b, x in zip(start, bound, z)), g

    @pytest.mark.parametrize(
        "triple", [(29, 57, 59), (41, 43, 47), (107, 116, 119), (839, 840, 840)]
    )
    def test_equals_z_min_on_heavy_stars_without_their_expansion(self, triple):
        g = dual_graph(new_triple(*triple))
        start, z = laufer_start(g), fundamental_cycle(g)
        assert start == z
        assert "coefficients" not in vars(start) and "coefficients" not in vars(z)
        assert not {"vertices", "neighbors"} & vars(g).keys()

    def test_below_z_min_on_a_gcd_heavy_star(self):
        g = dual_graph(new_triple(30, 40, 50))
        z = fundamental_cycle(g)
        assert (laufer_start(g).center, z.center) == (6, 12)
        assert laufer_cycle(g, z) == z


class TestFundamentalGenus:
    def test_known_values(self):
        assert not off_golden("pf", fundamental_genus)

    def test_formula_inapplicable_raises(self):
        # lambda_3 > alpha_1 alpha_2 alpha_3 forces the Laufer path
        t = new_triple(6, 10, 15)
        with pytest.raises(FormulaInapplicableError):
            fundamental_genus_formula(t)
        assert fundamental_genus(t) == fundamental_genus_oracle(dual_graph(t))

    def test_formula_builds_neither_record(self):
        t = new_triple(3, 4, 7)
        assert fundamental_genus(t) == 2
        assert "seifert_data" not in vars(t) and "dual_graph" not in vars(t)

    def test_formula_gcds_agree_with_seifert_data(self):
        inapplicable = set()
        for t in triples(30):
            sd = seifert_data(new_triple(t.a, t.b, t.c))
            lam_3, alpha_3, alpha_product = resolution._formula_terms(t)
            assert (lam_3, alpha_3, alpha_product) == (sd.lam[2], sd.alpha[2], prod(sd.alpha)), t
            minus_z2 = sd.ghat[2] * -(-sd.lam[2] // sd.alpha[2])
            assert resolution.expected_minus_z_squared(t) == minus_z2
            if sd.lam[2] > prod(sd.alpha):
                with pytest.raises(FormulaInapplicableError, match=f"lambda_3 = {sd.lam[2]} >"):
                    fundamental_genus_formula(t)
                inapplicable.add((t.a, t.b, t.c))
            else:
                fundamental_genus_formula(t)
            assert "seifert_data" not in vars(t)
        assert {(6, 10, 15), (10, 12, 15)} <= inapplicable

    def test_star_sums_match_per_vertex_adjunction(self):
        for t in [*triples(25), *sample_to_120()]:
            g = dual_graph(t)
            assert fundamental_genus_oracle(g) == adjunction_per_vertex(g), t
        for g in NEGATIVE_DEFINITE:
            assert fundamental_genus_oracle(g) == adjunction_per_vertex(g), g

    def test_adjunction_terms(self):
        g = dual_graph(new_triple(2, 3, 5))
        # rational -2 curves have K.E = 0
        assert all(canonical_degree(g, i) == 0 for i in range(len(g.vertices)))


class TestNegativeDefiniteness:
    def test_minors_of_small_matrix(self):
        assert leading_principal_minors([[-2, 1], [1, -2]]) == [-2, 3]
        assert leading_principal_minors([[0, 1], [1, 0]]) == [0, 0]

    def test_indefinite_rejected(self):
        assert not is_negative_definite([[-2, 3], [3, -2]])

    def test_all_graphs_negative_definite(self):
        assert all(is_negative_definite(intersection_matrix(dual_graph(t))) for t in triples(9))

    def test_tree_elimination_matches_bareiss(self):
        for t in triples(12):
            g = dual_graph(t)
            assert is_negative_definite_tree(g) == is_negative_definite(intersection_matrix(g)), t
        for g in NOT_NEGATIVE_DEFINITE:
            assert not is_negative_definite(intersection_matrix(g))
            assert not is_negative_definite_tree(g)
        for g in NEGATIVE_DEFINITE:
            assert is_negative_definite(intersection_matrix(g))
            assert is_negative_definite_tree(g)

