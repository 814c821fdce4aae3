"""The oracles that run only in verify still catch a wrong hot-path value."""

import gc
from collections import Counter, defaultdict
from functools import cached_property

import pytest

from brieskorn import classify, filtration, genus, resolution, ring, verify
from brieskorn.errors import InternalCheckError
from brieskorn.verify import (
    run_all,
    suite_fundamental_genus,
    suite_hilbert,
    suite_membership_oracle,
    suite_negative_definite,
    suite_pg_bound,
    suite_q_recursion,
)


def test_q_recursion_suite_catches_a_wrong_colength_drop(monkeypatch):
    exact = ring.BrieskornPair.v.func

    def off_at_zero(p):
        # v_0 never enters q(n), so only the colength oracle can see this
        v0, *rest = exact(p)
        return (v0 + 1, *rest)

    monkeypatch.setattr(ring.BrieskornPair, "v", property(off_at_zero))
    result = suite_q_recursion(5)
    assert not result.passed
    assert all("v_0" in failure and "colength drop" in failure for failure in result.failures)


def test_q_recursion_suite_catches_a_wrong_drop_sum(monkeypatch):
    exact = ring.BrieskornPair.drop_sums.func
    target, n = ring.BrieskornPair(4, 6), 2

    def off_once(p):
        # past the pair's own recursion check, and at neither n = 1 (the q(m)
        # formula) nor n = nr (the p_g bound), so only p_g - S(n) summed term
        # by term can see this
        sums = list(exact(p))
        if p == target:
            sums[n] -= 1
        return tuple(sums)

    monkeypatch.setattr(ring.BrieskornPair, "drop_sums", property(off_once))
    failed = {result.name: result.failures for result in run_all(9) if result.failures}
    assert list(failed) == ["q-recursion"]
    assert [failure.split(":")[0] for failure in failed["q-recursion"]] == [
        str(target.triple(c)) for c in range(6, 10)
    ]
    assert all(f"q({n}m)" in f and f"p_g - S({n})" in f for f in failed["q-recursion"])


def test_hilbert_suite_catches_a_wrong_closed_form(monkeypatch):
    exact = ring.BrieskornPair.hilbert.func
    target = ring.BrieskornPair(4, 6)

    def off_once(p):
        e0, e1, e2 = exact(p)
        return (e0, e1, e2 + 1) if p == target else (e0, e1, e2)

    monkeypatch.setattr(ring.BrieskornPair, "hilbert", property(off_once))
    result = suite_hilbert(9)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))
    assert "fit" in result.failures[0]


def test_pg_bound_suite_catches_a_wrong_geometric_genus(monkeypatch):
    exact = genus.geometric_genus
    monkeypatch.setattr(genus, "geometric_genus", lambda t: exact(t) + 1)
    result = suite_pg_bound(5)
    assert not result.passed
    assert all("lattice loop" in failure for failure in result.failures)
    # the bound is neither read nor counted where p_g is wrong
    assert len(result.failures) == result.checks


def one_threshold_off(target: ring.BrieskornPair, k: int, n: int):
    """closure_of_m_power, except that e_k of target's closure(m^n) is one too high."""
    exact = ring.closure_of_m_power

    def off_once(p, power):
        ideal = exact(p, power)
        if (p, power) != (target, n):
            return ideal
        e = list(ideal.thresholds)
        e[k] += 1
        return ring.StaircaseIdeal(tuple(e))

    return off_once


def test_membership_suite_catches_one_wrong_threshold(monkeypatch):
    target, k, n = ring.BrieskornPair(3, 4), 0, 2
    # e_0 = 2 here, so x^0 stays outside the ideal and the socle test is blind
    monkeypatch.setattr(ring, "closure_of_m_power", one_threshold_off(target, k, n))
    result = suite_membership_oracle(7)
    # the pair's thresholds are compared once, on its least triple
    assert result.failures == [f"{target}: e_{k} = 3 != expansion degree 2 at k={k}, n={n}"]


def test_membership_suite_builds_each_staircase_once_per_pair(monkeypatch):
    exact = ring.closure_of_m_power
    calls = Counter()

    def counted(t, n):
        calls[t.a, t.b, n] += 1
        return exact(t, n)

    monkeypatch.setattr(ring, "closure_of_m_power", counted)
    assert all(result.passed for result in run_all(8))
    # the pair's one ladder, n = 0..nr + max(a, 3) + 1, read by the nr scan, the
    # colength drops, the membership thresholds and the Hilbert fit alike
    built = [
        (a, b, n)
        for a in range(2, 9)
        for b in range(a, 9)
        for n in range(ring.BrieskornPair(a, b).nr + max(a, 3) + 2)
    ]
    assert calls == Counter(built)


def test_one_wrong_staircase_fails_every_suite_that_reads_it(monkeypatch):
    target, k, n = ring.BrieskornPair(3, 4), 0, 2
    monkeypatch.setattr(ring, "closure_of_m_power", one_threshold_off(target, k, n))
    # the ladder is shared, so each oracle that reads closure(m^2) of (3, 4) still sees it
    failed = {result.name: result.failures for result in run_all(7) if result.failures}
    assert failed == {
        "nr-formula-vs-staircase": [f"{target}: scan 3 != formula 2"],
        "power-membership-oracle": [f"{target}: e_{k} = 3 != expansion degree 2 at k={k}, n={n}"],
        "q-recursion": [
            f"{target}: v_1 = 1 != colength drop -2",
            f"{target}: v_2 = 0 != colength drop 4",
        ],
    }


def test_membership_suite_catches_a_wrong_expansion_degree(monkeypatch):
    exact = ring.power_membership_degree
    monkeypatch.setattr(
        ring, "power_membership_degree", lambda t, k, n: exact(t, k, n) + (k >= 1)
    )
    result = suite_membership_oracle(5)
    assert not result.passed
    assert all("expansion degree" in failure for failure in result.failures)


def test_membership_suite_catches_a_wrong_expansion_past_the_least_triple(monkeypatch):
    exact = ring.BrieskornTriple.expansion_min_degrees.func
    target = ring.BrieskornTriple(3, 5, 9)  # c > b: the pair's thresholds never read it

    def off_once(t):
        degrees = exact(t)
        return (degrees[0], degrees[1] + 1, *degrees[2:]) if t == target else degrees

    monkeypatch.setattr(ring.BrieskornTriple, "expansion_min_degrees", property(off_once))
    result = suite_membership_oracle(10)
    assert result.failures == [f"{target}: expansion degrees (0, 6, 10) != (0, 5, 10)"]


def doubled(z: resolution.Cycle) -> resolution.Cycle:
    """2 Z: anti-nef whenever Z is, and never minimal."""
    return resolution.Cycle(
        2 * z.center, tuple((tuple(2 * c for c in part), copies) for part, copies in z.branches)
    )


def test_fundamental_genus_suite_catches_a_non_minimal_cycle(monkeypatch):
    exact = resolution.fundamental_cycle
    target = ring.BrieskornTriple(10, 12, 15)
    graph = resolution.dual_graph(target)

    def twice_once(g):
        # 2 Z_min is anti-nef too, and the p_f formula does not apply to the
        # target, so only Laufer's sequence can see this
        z = exact(g)
        return doubled(z) if g == graph else z

    monkeypatch.setattr(resolution, "fundamental_cycle", twice_once)
    result = suite_fundamental_genus(15)
    assert result.failures == [f"{target}: closed-form Z has 4 at vertex 0, Laufer's sequence 2"]


def start_raised_at_the_center(target: ring.BrieskornTriple, center: int):
    """laufer_start, except that target's star starts with the given center coefficient."""
    exact = resolution.laufer_start
    graph = resolution.dual_graph(target)

    def raised(g):
        start = exact(g)
        return resolution.Cycle(center, start.branches) if g == graph else start

    return raised


def test_fundamental_genus_suite_catches_a_start_above_z_min(monkeypatch):
    target = ring.BrieskornTriple(10, 12, 15)
    graph = resolution.dual_graph(target)
    assert resolution.laufer_start(graph) == resolution.fundamental_cycle(graph)
    assert resolution.fundamental_cycle(graph).center == 2
    monkeypatch.setattr(resolution, "laufer_start", start_raised_at_the_center(target, 3))
    result = suite_fundamental_genus(15)
    assert result.failures == [f"{target}: Laufer's start 3 is above its bound 2 at class 0"]


def test_a_start_raised_but_still_below_z_min_changes_nothing(monkeypatch):
    target = ring.BrieskornTriple(12, 14, 14)
    graph = resolution.dual_graph(target)
    z = resolution.fundamental_cycle(graph)
    assert (resolution.laufer_start(graph).center, z.center) == (3, 6)
    monkeypatch.setattr(resolution, "laufer_start", start_raised_at_the_center(target, 4))
    assert resolution.laufer_start(graph).center == 4
    assert resolution.laufer_cycle(graph, z) == z
    assert suite_fundamental_genus(15).passed


def test_negative_definite_suite_checks_past_exponent_12(monkeypatch):
    exact = resolution.is_negative_definite_tree
    target = ring.BrieskornTriple(13, 14, 15)
    rejected = resolution.dual_graph(target)
    monkeypatch.setattr(
        resolution, "is_negative_definite_tree", lambda g: g != rejected and exact(g)
    )
    result = suite_negative_definite(15)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(str(target))


def test_failures_never_outnumber_checks(monkeypatch):
    exact = resolution.fundamental_cycle
    monkeypatch.setattr(resolution, "fundamental_cycle", lambda g: doubled(exact(g)))
    results = run_all(12)
    assert not all(result.passed for result in results)
    for result in results:
        assert len(result.failures) <= result.checks, result.name


def test_one_walk_computes_each_triple_once(monkeypatch):
    calls = Counter()
    for module, name in [(filtration, "q_sequence"), (genus, "geometric_genus")]:
        exact = getattr(module, name)

        def counted(t, *args, exact=exact, name=name):
            calls[name, (t.a, t.b, t.c)] += 1
            return exact(t, *args)

        monkeypatch.setattr(module, name, counted)
    records = defaultdict(list)  # every Seifert record handed out, kept alive so ids differ
    exact_seifert = resolution.seifert_data

    def recorded(t):
        records[t.a, t.b, t.c].append(exact_seifert(t))
        return records[t.a, t.b, t.c][-1]

    monkeypatch.setattr(resolution, "seifert_data", recorded)
    stars = Counter()  # star builds, by the id of the Seifert record they read
    exact_build = resolution.build_dual_graph
    monkeypatch.setattr(
        resolution, "build_dual_graph", lambda sd: stars.update([id(sd)]) or exact_build(sd)
    )
    for record, name in [
        (resolution.DualGraph, "vertices"),
        (resolution.DualGraph, "neighbors"),
        (resolution.Cycle, "coefficients"),
    ]:
        expand = getattr(record, name).func
        read = property(lambda r, name=name, expand=expand: calls.update([name]) or expand(r))
        monkeypatch.setattr(record, name, read)
    eliminated = []  # every star whose chain kinds are computed, kept alive so ids differ
    eliminate = resolution.DualGraph.chain_kinds.func
    kept = cached_property(lambda g: eliminated.append(g) or eliminate(g))
    kept.__set_name__(resolution.DualGraph, "chain_kinds")
    monkeypatch.setattr(resolution.DualGraph, "chain_kinds", kept)
    run_all(8)
    walked = [(a, b, c) for a in range(2, 9) for b in range(a, 9) for c in range(b, 9)]
    # q_sequence for the record; geometric_genus for the shared p_g, which the
    # record and the q(m) formula both read; one Seifert record, which the triple
    # keeps for every reader; one star, which both graph suites read (no triple
    # <= 8 takes the record's adjunction p_f path), and one elimination of its
    # chain kinds, which Z and the definiteness test both read; and the walk never
    # expands a star or a cycle
    assert {t: calls["q_sequence", t] for t in walked} == dict.fromkeys(walked, 1)
    assert {t: calls["geometric_genus", t] for t in walked} == dict.fromkeys(walked, 1)
    assert {t: len(set(map(id, records[t]))) for t in walked} == dict.fromkeys(walked, 1)
    assert {t: stars[id(records[t][0])] for t in walked} == dict.fromkeys(walked, 1)
    assert sum(stars.values()) == len(walked)
    assert len(set(map(id, eliminated))) == len(eliminated) == len(walked)
    assert not calls["vertices"] and not calls["neighbors"] and not calls["coefficients"]
    assert sum(calls.values()) == 2 * len(walked)

    cycles = Counter()
    exact = resolution.fundamental_cycle
    monkeypatch.setattr(resolution, "fundamental_cycle", lambda g: cycles.update([g]) or exact(g))
    suite_fundamental_genus(8)
    # one call of fundamental_cycle per triple, whose Z Laufer's step bound, the
    # adjunction p_f and Z^2 all read; this counts calls, and the star keeps its Z,
    # so later calls return it without computing it again
    assert cycles == Counter(resolution.dual_graph(ring.BrieskornTriple(*t)) for t in walked)


def test_the_adjunction_path_reads_the_one_star_and_z_of_its_triple(monkeypatch):
    # the record's adjunction p_f and both graph suites read the star the triple
    # keeps, and the Z that star keeps: the closed form runs only on a star that
    # holds no Z yet
    stars, computed, fallbacks = Counter(), Counter(), Counter()
    exact_build, exact_z = resolution.build_dual_graph, resolution.fundamental_cycle
    exact_oracle = resolution.fundamental_genus_oracle

    def counted_build(sd):
        g = exact_build(sd)
        stars.update([g])
        return g

    def counted_z(g):
        if "fundamental_cycle" not in vars(g):
            computed.update([g])
        return exact_z(g)

    monkeypatch.setattr(resolution, "build_dual_graph", counted_build)
    monkeypatch.setattr(resolution, "fundamental_cycle", counted_z)
    monkeypatch.setattr(
        resolution, "fundamental_genus_oracle", lambda g: fallbacks.update([g]) or exact_oracle(g)
    )
    assert all(result.passed for result in run_all(15))
    targets = [(6, 10, 15), (10, 12, 15)]  # the triples <= 15 outside the p_f formula
    graphs = [exact_build(resolution.seifert_data(ring.BrieskornTriple(*t))) for t in targets]
    assert fallbacks == Counter(graphs)
    assert [(stars[g], computed[g]) for g in graphs] == [(1, 1), (1, 1)]
    walked = sum(1 for a in range(2, 16) for b in range(a, 16) for c in range(b, 16))
    assert sum(stars.values()) == sum(computed.values()) == walked


def test_a_record_that_fails_to_build_fails_once_in_each_reader(monkeypatch):
    exact = classify.invariants_from_pg
    target = ring.BrieskornTriple(3, 4, 8)  # a certificate-family triple, too

    def refused(t, pg):
        if t == target:
            raise InternalCheckError(f"{t}: record refused")
        return exact(t, pg)

    monkeypatch.setattr(classify, "invariants_from_pg", refused)
    readers = {"q-recursion", "classification", "nr3-certificates", "pg-lower-bound"}
    for result in run_all(8):
        assert len(result.failures) <= result.checks, result.name
        expected = [f"{target}: record refused"] if result.name in readers else []
        assert result.failures == expected, result.name


def test_every_entry_point_refuses_a_bound_below_2():
    entries = [run_all] + [getattr(verify, n) for n in dir(verify) if n.startswith("suite_")]
    assert len(entries) == 1 + len(verify._SUITES)
    for entry in entries:
        with pytest.raises(ValueError, match="^bound must be at least 2, got 1$"):
            entry(1)


def test_the_walk_leaves_no_cyclic_garbage():
    # pairs and their ladders, Seifert records, stars, cycles and each triple's
    # shared builds are all freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        assert all(result.passed for result in run_all(8))
        assert gc.collect() == 0
    finally:
        gc.enable()
