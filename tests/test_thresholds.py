import hashlib
import json
import math
from fractions import Fraction

import pytest

from evenfactor.factor import check_yan_kano_condition
from evenfactor.graph6 import parse_graph6
from evenfactor.graphs import build_family, complete, cycle, disjoint_union, extremal, FamilySpec, join
from evenfactor.rng import SplitMix64
from evenfactor.spectral import RootFindingError, char_poly, spectral_radius, split_quotient
from evenfactor.thresholds import (
    EXTREMAL_EXCEPTION,
    GUARANTEED_BY_EDGES,
    GUARANTEED_BY_SPECTRAL,
    NO_GUARANTEE,
    applicability,
    edge_threshold,
    meets_spectral,
    recognize_extremal,
    spectral_threshold,
    verdict,
)


def test_edge_threshold_values():
    assert edge_threshold(8, 2) == 23
    assert edge_threshold(14, 3) == 72
    assert edge_threshold(6, 3) == 12
    assert build_family(FamilySpec(3, (1, 1, 1))).edge_count == 12
    with pytest.raises(ValueError):
        edge_threshold(5, 3)


def test_edge_threshold_equals_construction():
    # delta up to 12 covers the orders the condition check's tests reach
    for delta in range(2, 13):
        for n in range(2 * delta, 61):
            assert edge_threshold(n, delta) == extremal(n, delta).edge_count
    # the condition check's prune reads only s = 2, the largest bound of
    # any size 2 <= s <= n/2 that can violate the condition
    for n in range(4, 401):
        assert max(edge_threshold(n, s) for s in range(2, n // 2 + 1)) == edge_threshold(n, 2)


def test_spectral_threshold_values():
    assert spectral_threshold(8, 2) == pytest.approx(6.0969240955970605, abs=1e-9)
    t = spectral_threshold(20, 2)
    assert 18 < t < 19
    assert abs(t - spectral_radius(extremal(20, 2)).rho) <= 1e-8


def test_spectral_threshold_output_is_pinned():
    # every bit of the threshold over the quotient's whole domain up to
    # n = 120; any change to the root finder's floating-point operations on
    # a path these cubics take moves this hash
    lines = "".join(
        f"{n} {d} {spectral_threshold(n, d).hex()}\n"
        for n in range(3, 121)
        for d in range(2, n)
        if n - 2 * d + 1 >= 1
    )
    assert lines.count("\n") == 3481
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "f8abd4c04efccb437902f79683e692425ad22122f9d578fc89b23212db51d6dc"
    )


def test_spectral_threshold_returns_up_to_huge_n():
    # the root stays simple and Newton reaches it from above however large
    # n is; at large n and small delta its gap to n - delta is below one
    # ulp, so the bound holds only as >=
    rng = SplitMix64(14)
    for _ in range(100):
        n = 4 + rng.randrange(10**12 - 3)
        for d in (2, 3, n // 2, 2 + rng.randrange(n // 2 - 1)):
            if n - 2 * d + 1 >= 1:
                root = spectral_threshold(n, d)
                assert math.isfinite(root) and root >= n - d
    for n, d in ((10**12, 2), (10**12, 3), (10**12, 5 * 10**11)):
        assert spectral_threshold(n, d) >= n - d


def test_spectral_threshold_past_the_float_range_raises():
    # the cubic overflows to inf or NaN there; the root finder raises on a
    # value that is not finite instead of returning nan or its last finite
    # iterate
    for n, d in ((10**103, 2), (10**35, 10**35 // 4)):
        with pytest.raises(RootFindingError):
            spectral_threshold(n, d)
    for k in range(1, 120):
        n = 10**k
        for d in (2, 3, n // 4, n // 2):
            if n - 2 * d + 1 >= 1:
                try:
                    assert math.isfinite(spectral_threshold(n, d))
                except (RootFindingError, OverflowError):
                    pass


def test_spectral_threshold_never_below_n_minus_delta_past_2_53():
    # past 2^53 float(n - delta) may round down, and p evaluated near the
    # root is off by several ulps; the root finder's bound is the least
    # float >= n - delta and a root within roundoff of it is the bound
    for k in range(1, 31):
        n = 10**k
        for d in (2, 3, n // 4, n // 2):
            if n - 2 * d + 1 >= 1:
                root = spectral_threshold(n, d)
                assert math.isfinite(root) and root >= n - d, (k, d, root)


def _threshold_cases() -> list[tuple[int, int]]:
    # the pinned domain up to n = 120, 300 random n below 10^12 with the
    # deltas of test_spectral_threshold_returns_up_to_huge_n, and n = 10^k
    cases = [(n, d) for n in range(3, 121) for d in range(2, n) if n - 2 * d + 1 >= 1]
    rng = SplitMix64(14)
    for _ in range(300):
        n = 4 + rng.randrange(10**12 - 3)
        deltas = (2, 3, n // 2, 2 + rng.randrange(n // 2 - 1))
        cases += [(n, d) for d in deltas if n - 2 * d + 1 >= 1]
    for k in range(1, 31):
        n = 10**k
        cases += [(n, d) for d in (2, 3, n // 4, n // 2) if n - 2 * d + 1 >= 1]
    return cases


def test_spectral_threshold_is_within_one_ulp():
    # in exact arithmetic the cubic changes sign between the floats next to
    # the threshold, so the largest root lies within one ulp of it; the
    # threshold never drops below n - delta
    cases = _threshold_cases()
    assert len(cases) == 4801
    for n, d in cases:
        x = spectral_threshold(n, d)
        p = char_poly(split_quotient(n, d, 1))
        below = Fraction(math.nextafter(x, -math.inf))
        above = Fraction(math.nextafter(x, math.inf))
        assert p(below) <= 0 <= p(above), (n, d, x)
        assert x >= n - d, (n, d, x)


def test_spectral_threshold_exceeds_clique_radius():
    for delta in (2, 3, 4, 5):
        for n in range(2 * delta, 50):
            assert spectral_threshold(n, delta) > n - delta


def test_applicability():
    assert applicability(8, 2, "1.1") is True
    assert applicability(7, 2, "1.1") is False  # odd order
    assert applicability(8, 2, "1.2") is True
    assert applicability(9, 2, "1.2") is False  # odd order
    assert applicability(6, 2, "1.2") is False  # 6 < 5*2-3+... = 7
    assert applicability(12, 3, "1.1") is False  # 12 < 14
    assert applicability(14, 3, "1.1") is True
    assert applicability(66, 12, "1.1") is False  # 66 < 6*12-4
    assert applicability(68, 12, "1.1") is True
    with pytest.raises(ValueError):
        applicability(8, 1, "1.1")
    with pytest.raises(ValueError):
        applicability(8, 2, "2.1")


def test_route_floors_have_one_home():
    from evenfactor import identities, thresholds

    assert identities.edge_route_floor is thresholds.edge_route_floor
    assert identities.spectral_route_floor is thresholds.spectral_route_floor


def test_spectral_comparison_has_one_home():
    from evenfactor import harness, thresholds

    assert not hasattr(harness, "RHO_EQUALITY_TOL")
    assert harness.meets_spectral is thresholds.meets_spectral


def test_meets_spectral_absorbs_only_the_tolerance():
    thr = spectral_threshold(8, 2)
    assert meets_spectral(thr, thr) and meets_spectral(thr + 1.0, thr)
    assert meets_spectral(thr - 5e-9, thr)
    assert not meets_spectral(thr - 2e-8, thr)


def test_applicability_quadratic_floors_integer_exact():
    # cleared-denominator comparisons agree with rational arithmetic
    from fractions import Fraction

    for delta in range(2, 12):
        for n in range(2 * delta, 9 * delta):
            lin11 = n >= 6 * delta - 4
            quad11 = Fraction(n) >= Fraction(delta**2 + 7 * delta + 4, 6)
            assert applicability(2 * (n // 2), delta, "1.1") == (
                (2 * (n // 2)) >= 6 * delta - 4
                and Fraction(2 * (n // 2)) >= Fraction(delta**2 + 7 * delta + 4, 6)
            )
            assert (6 * n >= delta**2 + 7 * delta + 4) == quad11
            assert (3 * n >= delta**2 + 3 * delta) == (
                Fraction(n) >= Fraction(delta**2 + 3 * delta, 3)
            )


class TestRecognizer:
    def test_recognizes_own_construction(self):
        for n, delta in [(10, 2), (8, 2), (14, 3), (20, 5), (12, 4)]:
            assert recognize_extremal(extremal(n, delta)) == (n, delta)

    def test_complete_graph_is_not(self):
        assert recognize_extremal(complete(10)) is None

    def test_perturbation_breaks_it(self):
        g = extremal(8, 2)
        for u, v in g.non_edges():
            assert recognize_extremal(g.with_edge(u, v)) is None

    def test_agrees_with_isomorphism_on_random_graphs(self):
        # the fingerprint must fire exactly when the graph is isomorphic to
        # the family member for its own (n, min degree)
        from evenfactor.rng import SplitMix64, random_graph_with_edges

        rng = SplitMix64(2718)
        hits = 0
        for _ in range(1000):
            n = 5 + rng.randrange(8)
            m = rng.randrange(n * (n - 1) // 2 + 1)
            g = random_graph_with_edges(n, m, rng)
            got = recognize_extremal(g)
            delta = g.min_degree()
            truth = False
            if delta is not None and delta >= 2 and n > 2 * delta:
                ref = extremal(n, delta)
                if ref.edge_count == g.edge_count:
                    truth = _isomorphic(g, ref)
            assert (got is not None) == truth
            if got:
                hits += 1
                assert got == (n, delta)
        assert hits < 50  # the family is rare among uniform draws

    def test_boundary_n_equals_2delta_excluded(self):
        assert recognize_extremal(extremal(6, 3)) is None

    def test_agrees_with_isomorphism_on_the_graph_atlas(self):
        # every graph with at most 7 vertices, up to isomorphism
        import networkx as nx

        from evenfactor.graphs import Graph

        hits = set()
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            g = Graph.from_edges(n, h.edges())
            delta = g.min_degree()
            truth = (
                delta is not None
                and delta >= 2
                and n > 2 * delta
                and _isomorphic(g, extremal(n, delta))
            )
            assert recognize_extremal(g) == ((n, delta) if truth else None)
            if truth:
                hits.add((n, delta))
        assert hits == {(5, 2), (6, 2), (7, 2), (7, 3)}


def _isomorphic(g, h):
    import networkx as nx

    g1 = nx.Graph()
    g1.add_nodes_from(range(g.n))
    g1.add_edges_from(g.edges())
    g2 = nx.Graph()
    g2.add_nodes_from(range(h.n))
    g2.add_edges_from(h.edges())
    return nx.is_isomorphic(g1, g2)


class TestVerdict:
    def test_extremal_is_the_exception(self):
        vd = verdict(extremal(8, 2))
        assert vd.meets_edge and vd.meets_spectral
        assert vd.is_extremal
        assert vd.guarantee == EXTREMAL_EXCEPTION

    def test_k8_not_applicable(self):
        vd = verdict(complete(8))
        assert vd.delta_G == 7
        assert not vd.thm11_applicable and not vd.thm12_applicable
        assert vd.guarantee == NO_GUARANTEE

    def test_one_more_edge_guarantees(self):
        g = extremal(8, 2)
        u, v = g.non_edges()[0]
        vd = verdict(g.with_edge(u, v), delta=2)
        assert vd.e_G == 24 and vd.edge_threshold == 23
        assert not vd.is_extremal
        assert vd.guarantee == GUARANTEED_BY_EDGES

    def test_one_edge_below_the_threshold(self):
        # extremal(8, 2) less one edge of its K_5: one edge short of e_thr,
        # and the condition fails, so no route may fire
        g = parse_graph6("G~~~u?")
        vd = verdict(g)
        assert (vd.e_G, vd.edge_threshold, vd.meets_edge) == (22, 23, False)
        assert not check_yan_kano_condition(g).holds
        assert vd.guarantee == NO_GUARANTEE

    def test_just_below_the_spectral_threshold(self):
        # K_2 v (K_51 u K_3): rho 52.0045 against rho_thr 52.0175, and the
        # condition fails
        g = join(complete(2), disjoint_union([complete(51), complete(3)]))
        vd = verdict(g, which="spectral")
        assert vd.thm12_applicable
        assert vd.rho_G < vd.spectral_threshold - 0.01
        assert not check_yan_kano_condition(g).holds
        assert vd.guarantee == NO_GUARANTEE

    def test_which_edges_skips_rho(self):
        vd = verdict(extremal(8, 2), which="edges")
        assert vd.rho_G is None and vd.meets_spectral is None
        assert vd.guarantee == EXTREMAL_EXCEPTION

    def test_which_spectral(self):
        g = extremal(8, 2)
        u, v = g.non_edges()[0]
        vd = verdict(g.with_edge(u, v), which="spectral", delta=2)
        assert vd.meets_edge is None
        assert vd.guarantee == GUARANTEED_BY_SPECTRAL

    def test_which_spectral_on_extremal_is_the_exception(self):
        # the spectral route alone fires, and the extremal graph is exempt
        vd = verdict(extremal(8, 2), which="spectral")
        assert vd.meets_edge is None and vd.meets_spectral
        assert vd.is_extremal
        assert vd.guarantee == EXTREMAL_EXCEPTION

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match=r"which must be edges\|spectral\|both, got .bogus."):
            verdict(extremal(8, 2), which="bogus")

    def test_disconnected_reason(self):
        vd = verdict(disjoint_union([complete(4), complete(4)]))
        assert vd.guarantee == NO_GUARANTEE
        assert vd.reason == "graph is disconnected"

    def test_low_degree_reason(self):
        vd = verdict(cycle(8).with_edge(0, 2))
        assert vd.delta_G == 2
        vd = verdict(Graph_from_path())
        assert vd.guarantee == NO_GUARANTEE
        assert "below 2" in vd.reason

    def test_delta_override(self):
        # a denser graph can be queried against a smaller delta's thresholds
        vd = verdict(complete(10), delta=2)
        assert vd.thm11_applicable
        assert vd.meets_edge  # 45 >= C(9,2)+2 = 38
        assert vd.guarantee == GUARANTEED_BY_EDGES

    def test_json_field_names_and_order(self):
        vd = verdict(extremal(8, 2))
        blob = json.dumps(vd.to_json_dict())
        keys = list(json.loads(blob).keys())
        assert keys == [
            "n",
            "delta_G",
            "thm11_applicable",
            "thm12_applicable",
            "edge_threshold",
            "spectral_threshold",
            "e_G",
            "rho_G",
            "meets_edge",
            "meets_spectral",
            "is_extremal",
            "guarantee",
            "reason",
        ]

    def test_pure_function(self):
        g = extremal(10, 2)
        assert verdict(g) == verdict(g)

    def test_empty_graph(self):
        from evenfactor.graphs import Graph

        vd = verdict(Graph(0, ()))
        assert vd.guarantee == NO_GUARANTEE
        assert vd.reason == "empty graph"


def Graph_from_path():
    from evenfactor.graphs import path

    return path(6)
