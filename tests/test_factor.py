"""Even-factor oracles: frozen examples, certificate soundness, agreement of
the cycle-space search with the brute-force scan, and the odd-components
condition with its implication on small even-order graphs."""

import hashlib
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from evenfactor import factor
from evenfactor.factor import (
    EXISTS,
    NOT_EXISTS,
    check_yan_kano_condition,
    cycle_space_basis,
    has_even_factor,
    has_even_factor_naive,
    verify_even_factor,
)
from evenfactor.graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete,
    cycle,
    disjoint_union,
    extremal,
    join,
    mask_vertices,
    odd_components_minus,
    path,
)
from evenfactor.rng import (
    SplitMix64,
    complete_minus_random_edges,
    random_connected_graph,
    random_graph_with_edges,
)
from evenfactor.thresholds import edge_threshold


# every vertex on a cycle, three degree-2 vertices; the forced edges at
# them leave vertex 4 no usable edge, so there is no even factor
H7 = Graph.from_edges(
    7, [(0, 2), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (3, 6), (4, 5), (5, 6)]
)

# outer 5-cycle, inner pentagram, spokes
PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


def xor(a, b):
    return a ^ b


def degrees_of(edge_set, n):
    deg = [0] * n
    for u, v in edge_set:
        deg[u] += 1
        deg[v] += 1
    return deg


def removes_a_perfect_matching_of_the_odd_vertices(g, certificate):
    """The edges of g outside the certificate are a matching that covers
    exactly the vertices of odd degree in g."""
    removed = set(g.edges()) - {(min(e), max(e)) for e in certificate}
    covered = degrees_of(removed, g.n)
    return covered == [d % 2 for d in g.degrees()]


def forest_corpus():
    """Dense and sparse draws with n <= 14 and disjoint unions of them
    (forests of several roots)."""
    rng = SplitMix64(1616)
    graphs = []
    for _ in range(250):
        n = 1 + rng.randrange(14)
        total = comb(n, 2)
        graphs.append(complete_minus_random_edges(n, rng.randrange(total + 1), rng))
        graphs.append(random_graph_with_edges(n, rng.randrange(total + 1), rng))
    graphs += [disjoint_union(graphs[i : i + 3]) for i in range(0, 60, 3)]
    return graphs


def walk_condition(g):
    """(holds, witness, witness_odd_components) by the subset walk: every
    size 2 <= s <= n/2 whose edge bound C(s,2) + s(n-s) + C(n-2s+1,2)
    reaches e(G), each in increasing-bitmask order; the least violating mask
    over all sizes is the witness."""
    n, full, best = g.n, (1 << g.n) - 1, None
    for size in range(2, n // 2 + 1):
        if comb(size, 2) + size * (n - size) + comb(n - 2 * size + 1, 2) < g.edge_count:
            continue
        smask = (1 << size) - 1
        while smask <= full and (best is None or smask < best[0]):
            odd = odd_components_minus(g, smask)
            if odd >= size:
                best = (smask, odd)
                break
            low = smask & -smask
            ripple = smask + low
            smask = (((ripple ^ smask) >> 2) // low) | ripple
    if best is None:
        return (True, None, None)
    return (False, tuple(v for v in range(n) if best[0] >> v & 1), best[1])


def assert_witness_violates(g, rep):
    """A failure's witness S has |S| >= 2 and o(G - S) >= |S|, counted right;
    it need not be the least violating S."""
    if not rep.holds:
        assert len(rep.witness) >= 2
        assert odd_components_minus(g, rep.witness) == rep.witness_odd_components >= len(rep.witness)


def acceptance_draws():
    """test_acceptance.py::test_06's 2,000 connected draws, in its order."""
    rng = SplitMix64(624)
    graphs = []
    while len(graphs) < 2000:
        n = (6, 8, 10)[rng.randrange(3)]
        m_max = n * (n - 1) // 2
        g = random_graph_with_edges(n, n - 1 + rng.randrange(m_max - n + 2), rng)
        if g.is_connected():
            graphs.append(g)
    return graphs


# (n, delta, draws): even orders where e <= e_thr keeps size delta past the
# edge prune, since the extremal graph meets its bound with equality
NEAR_THRESHOLD = ((8, 2, 60), (10, 2, 60), (12, 3, 45), (14, 3, 30), (16, 3, 15))


def near_threshold_corpus():
    """Even-order draws at or just below e_thr: uniform graphs with e = e_thr
    or up to 2n edges fewer, and extremal graphs with k <= 2 edges dropped
    and at most k non-edges added back."""
    rng = SplitMix64(2727)
    graphs = []
    for n, delta, draws in NEAR_THRESHOLD:
        e_thr = edge_threshold(n, delta)
        edges = extremal(n, delta).edges()
        for i in range(draws):
            if i % 3 == 0:
                graphs.append(random_graph_with_edges(n, e_thr, rng))
            elif i % 3 == 1:
                graphs.append(random_graph_with_edges(n, e_thr - rng.randrange(2 * n), rng))
            else:
                k = rng.randrange(3)
                dropped = set(rng.sample(k, len(edges)))
                g = Graph.from_edges(n, [e for j, e in enumerate(edges) if j not in dropped])
                missing = g.non_edges()
                for j in rng.sample(rng.randrange(k + 1), len(missing)):
                    g = g.with_edge(*missing[j])
                graphs.append(g)
    return graphs


class TestCycleSpaceBasis:
    def test_tree_has_empty_basis(self):
        assert cycle_space_basis(path(6)) == []

    def test_c4_basis_is_itself(self):
        basis = cycle_space_basis(cycle(4))
        assert len(basis) == 1
        assert basis[0] == frozenset(cycle(4).edges())

    def test_k4_all_combinations_even(self):
        basis = cycle_space_basis(complete(4))
        assert len(basis) == 3
        for code in range(8):
            acc = frozenset()
            for i in range(3):
                if code >> i & 1:
                    acc ^= basis[i]
            assert all(d % 2 == 0 for d in degrees_of(acc, 4))

    def test_dimension_formula(self):
        rng = SplitMix64(5)
        for _ in range(50):
            n = 2 + rng.randrange(8)
            m = rng.randrange(n * (n - 1) // 2 + 1)
            g = random_graph_with_edges(n, m, rng)
            c = len(g.components())
            assert len(cycle_space_basis(g)) == m - n + c

    def test_forest_walk_is_pinned(self):
        # the edge list and every fundamental-cycle mask, in order; any
        # change to the walk's tree or basis order moves this hash
        lines = "".join(
            f"{edges}|{[hex(m) for m in basis]}\n"
            for edges, _, basis in map(factor._forest, forest_corpus())
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "a0e6890f21c449683b1376c6077a927b58afeecf9919b5fc0274e91ebffa4f90"
        )

    def test_cover_is_at_most_the_edge_count(self):
        # the bound behind the oracle's size pre-test: each vertex an even
        # subgraph covers has degree at least 2, so it covers at most as many
        # vertices as it has edges; every XOR of one to three basis cycles
        checked = 0
        for g in forest_corpus():
            _, incident, basis = factor._forest(g)
            elems = []
            for i, a in enumerate(basis):
                elems.append(a)
                for j in range(i + 1, len(basis)):
                    ab = a ^ basis[j]
                    elems.append(ab)
                    elems += [ab ^ c for c in basis[j + 1 :]]
            for elem in elems:
                covered = g.n - [elem & inc for inc in incident].count(0)
                assert covered <= elem.bit_count()
            checked += len(elems)
        assert checked == 1793791


class TestOracle:
    def test_cycle_is_its_own_factor(self):
        res = has_even_factor(cycle(6))
        assert res.status == EXISTS
        assert frozenset(res.certificate) == frozenset(cycle(6).edges())

    def test_path_has_none(self):
        assert has_even_factor(path(4)).status == NOT_EXISTS

    def test_k4(self):
        res = has_even_factor(complete(4))
        assert res.status == EXISTS
        assert verify_even_factor(complete(4), res.certificate)

    def test_extremal_finding_is_recorded_and_valid(self):
        g = extremal(8, 2)
        res = has_even_factor(g)
        assert res.status == EXISTS
        assert verify_even_factor(g, res.certificate)
        # the by-hand candidate: triangle on the core plus the singleton,
        # plus a 5-cycle inside the big clique, is itself a valid factor
        candidate = ((0, 1), (0, 7), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6))
        assert verify_even_factor(g, candidate)

    @pytest.mark.parametrize(
        "certificate",
        [((0, 1), (1, 0)), ((0, 1), (-1, 0)), ((0, 1), (5, 0))],
        ids=["reversed-duplicate", "negative-label", "label-past-n"],
    )
    def test_false_certificate_rejected(self, certificate):
        # path(2) has no even factor, so no certificate for it may pass
        assert has_even_factor(path(2)).status == NOT_EXISTS
        assert verify_even_factor(path(2), certificate) is False

    def test_empty_graph_trivially_exists(self):
        assert has_even_factor(Graph(0, ())).status == EXISTS

    def test_isolated_vertex_kills_it(self):
        g = disjoint_union([cycle(3), complete(1)])
        assert has_even_factor(g).status == NOT_EXISTS

    @pytest.mark.parametrize(
        "g",
        [
            disjoint_union([cycle(3), complete(1)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
            Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]),
        ],
        ids=["isolated-vertex", "pendant-vertex", "tree"],
    )
    def test_degree_at_most_one_is_decided_at_no_cost(self, g):
        # a vertex of degree <= 1 lies on no cycle, so the oracle stops
        # before any search
        res = has_even_factor(g)
        assert (res.status, res.certificate, res.search_cost) == (NOT_EXISTS, None, 0)

    def test_disconnected_both_components_covered(self):
        g = disjoint_union([cycle(3), cycle(4)])
        res = has_even_factor(g)
        assert res.status == EXISTS
        assert verify_even_factor(g, res.certificate)

    def test_bridge_between_cycles(self):
        # two triangles joined by a bridge: the bridge endpoints have odd
        # degree requirements no cycle-space element can satisfy... but both
        # triangles cover all vertices, so a factor exists without the bridge
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        res = has_even_factor(g)
        assert res.status == EXISTS
        assert (2, 3) not in res.certificate

    def test_vertex_only_on_bridges(self):
        # middle vertex joins two triangles through two bridges: uncoverable
        g = Graph.from_edges(
            7,
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)],
        )
        assert has_even_factor(g).status == NOT_EXISTS

    def test_vertex_on_three_bridges_with_minimum_degree_3(self):
        # K_4, K_4 and K_4 hung from one vertex by three bridges (graph6
        # Lj]?GKF_??_B?F): every degree is at least 3, so only the forest
        # walk sees that vertex 0 lies on no cycle; it is below Dirac's
        # bound (3 < 13/2), so the walk runs
        g = disjoint_union([complete(1), complete(4), complete(4), complete(4)])
        g = g.with_edge(0, 1).with_edge(0, 5).with_edge(0, 9)
        assert g.min_degree() == 3
        res = has_even_factor(g)
        assert (res.status, res.certificate, res.search_cost) == (NOT_EXISTS, None, 0)

    def test_h7_beside_k5_is_decided_by_the_gadget(self):
        # no factor (H7's vertex 4 is cut off by forced edges), though the
        # forced degrees are even; H7's odd-degree vertices 2, 3, 4, 5 span
        # only a star, so the odd-degree matching fails and the gadget decides
        res = has_even_factor(disjoint_union([H7, complete(5)]))
        assert (res.status, res.certificate, res.search_cost) == (NOT_EXISTS, None, 2)

    def test_k5_minus_an_edge_is_decided_by_the_gadget(self):
        # its two odd-degree vertices are the ends of the missing edge, so
        # they have no perfect matching; the gadget finds a factor
        g = Graph.from_edges(5, [e for e in complete(5).edges() if e != (0, 1)])
        res = has_even_factor(g)
        assert (res.status, res.search_cost) == (EXISTS, 2)
        assert verify_even_factor(g, res.certificate)

    def test_k23_has_no_even_factor(self):
        # every vertex sits on a cycle, min degree 2, yet no even spanning
        # subgraph can cover all three degree-2 vertices at once
        k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        res = has_even_factor(k23)
        # all six edges are forced, and the two degree-3 vertices have odd
        # forced degree: the parity test decides before any matching
        assert (res.status, res.search_cost) == (NOT_EXISTS, 0)
        assert has_even_factor_naive(k23).status == NOT_EXISTS

    def test_k32_is_decided_by_the_odd_degree_matching(self):
        # every vertex of K_32 has odd degree: K_32 minus a perfect matching
        k32 = complete(32)
        res = has_even_factor(k32)
        assert (res.status, res.search_cost) == (EXISTS, 1)
        assert verify_even_factor(k32, res.certificate)


class TestNaiveOracle:
    def test_c5(self):
        assert has_even_factor_naive(cycle(5)).status == EXISTS

    def test_k2(self):
        assert has_even_factor_naive(complete(2)).status == NOT_EXISTS

    def test_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert has_even_factor_naive(star).status == NOT_EXISTS

    def test_cap(self):
        with pytest.raises(ValueError):
            has_even_factor_naive(complete(8))  # 28 edges

    def test_certificate_is_first_in_bitmask_order(self):
        res = has_even_factor_naive(cycle(3))
        assert res.certificate == ((0, 1), (0, 2), (1, 2))
        assert res.search_cost == 8  # subsets 0..7, hit on the last


class TestOracleAgreement:
    def test_connected_small_random(self):
        rng = SplitMix64(31337)
        for _ in range(250):
            n = 4 + rng.randrange(5)
            m = rng.randrange(min(18, n * (n - 1) // 2) + 1)
            g = random_graph_with_edges(n, m, rng)
            assert has_even_factor(g).status == has_even_factor_naive(g).status

    def test_subdivided_small_random(self):
        # subdividing edges makes degree-2 vertices, whose edges are forced
        rng = SplitMix64(2718)
        with_forced = 0
        for _ in range(250):
            n = 4 + rng.randrange(4)
            m = rng.randrange(min(16, n * (n - 1) // 2) + 1)
            edges = random_graph_with_edges(n, m, rng).edges()
            for _ in range(min(rng.randrange(4), len(edges))):
                u, v = edges.pop(rng.randrange(len(edges)))
                edges += [(u, n), (v, n)]
                n += 1
            g = Graph.from_edges(n, edges)
            with_forced += 2 in g.degrees()
            res = has_even_factor(g)
            assert res.status == has_even_factor_naive(g).status
            if res.status == EXISTS:
                assert verify_even_factor(g, res.certificate)
        assert with_forced > 150

    def test_monotone_under_edge_addition(self):
        rng = SplitMix64(4242)
        grown = 0
        for _ in range(150):
            n = 5 + rng.randrange(4)
            m = n + rng.randrange(6)
            g = random_graph_with_edges(n, m, rng)
            if has_even_factor(g).status != EXISTS:
                continue
            missing = g.non_edges()
            if not missing:
                continue
            u, v = missing[rng.randrange(len(missing))]
            grown += 1
            assert has_even_factor(g.with_edge(u, v)).status == EXISTS
        assert grown > 20


# the unions the gadget decided before the odd-degree matching: the Petersen
# unions now stop at that matching (every vertex has odd degree), and the H7
# unions still reach the gadget
GADGET_PARTS = [
    [PETERSEN, PETERSEN, PETERSEN],
    [PETERSEN, PETERSEN, complete(4)],
    [H7, complete(7)],
    [H7, complete(8)],
]


def tutte_gadget_has_perfect_matching(g):
    """The gadget of the module docstring in networkx, decided by its
    maximum-cardinality matching: an answer independent of the oracle's
    bitmask rows and its Edmonds search."""
    import networkx as nx

    gadget = nx.Graph()
    for u, v in g.edges():
        gadget.add_edge(("port", u, v), ("port", v, u))
    for v in range(g.n):
        ports = [("port", v, u) for u in range(g.n) if g.has_edge(u, v)]
        d = len(ports)
        inner = [("inner", v, j) for j in range(d - 2)]
        gadget.add_edges_from((w, p) for w in inner for p in ports)
        gadget.add_edges_from((a, b) for i, a in enumerate(inner) for b in inner[i + 1 :])
    matching = nx.max_weight_matching(gadget, maxcardinality=True)
    return 2 * len(matching) == gadget.number_of_nodes()


def min_degree_2_corpus():
    """300 graphs of minimum degree at least 2 and at most 16 edges: random
    cores with some edges subdivided, whose forced paths often leave no
    factor."""
    rng = SplitMix64(4545)
    graphs = []
    while len(graphs) < 300:
        n = 4 + rng.randrange(4)
        m = n + rng.randrange(min(8, n * (n - 3) // 2) + 1)
        edges = random_graph_with_edges(n, m, rng).edges()
        for _ in range(rng.randrange(min(m, 16 - m) + 1)):
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (v, n)]
            n += 1
        g = Graph.from_edges(n, edges)
        if min(g.degrees()) >= 2:
            graphs.append(g)
    return graphs


class TestGadget:
    @pytest.mark.parametrize(
        "parts, status, cost",
        [
            (GADGET_PARTS[0], EXISTS, 1),
            (GADGET_PARTS[1], EXISTS, 1),
            (GADGET_PARTS[2], NOT_EXISTS, 2),
            (GADGET_PARTS[3], NOT_EXISTS, 2),
        ],
        ids=["3-petersen", "2-petersen-k4", "h7-k7", "h7-k8"],
    )
    def test_pinned_result_and_cost(self, parts, status, cost):
        # one perfect-matching test for the odd-degree vertices, and the
        # gadget one more
        g = disjoint_union(parts)
        res = has_even_factor(g)
        assert (res.status, res.search_cost) == (status, cost)
        if status == EXISTS:
            assert verify_even_factor(g, res.certificate)
        else:
            assert res.certificate is None

    def test_agrees_with_the_naive_oracle(self):
        # the gadget alone, without the bridge prune, the parity test or the
        # odd-degree matching
        found = 0
        for g in min_degree_2_corpus():
            cert = factor._gadget_factor(g)
            assert (cert is not None) == (has_even_factor_naive(g).status == EXISTS)
            if cert is not None:
                assert verify_even_factor(g, cert)
                found += 1
        # the other 29 have no factor
        assert found == 271

    @pytest.mark.parametrize(
        "parts",
        [
            # GADGET_PARTS[2:] are H7 beside K_7 and K_8, among the H7 unions
            *GADGET_PARTS[:2],
            *[[H7, complete(m)] for m in range(5, 17)],
            # dense, every vertex of odd degree
            [PETERSEN, PETERSEN, PETERSEN, complete(20)],
        ],
        ids=["3-petersen", "2-petersen-k4", *[f"h7-k{m}" for m in range(5, 17)], "3-petersen-k20"],
    )
    def test_agrees_with_a_networkx_matching(self, parts):
        g = disjoint_union(parts)
        res = has_even_factor(g)
        assert (res.status == EXISTS) == tutte_gadget_has_perfect_matching(g)
        if res.status == EXISTS:
            assert verify_even_factor(g, res.certificate)
        else:
            assert (res.status, res.certificate) == (NOT_EXISTS, None)


def parity_gadget(q, k):
    """Core a=0, b=1; k vertices adjacent to exactly a and b; K_q joined to a
    by two edges.  b's forced degree is k, so a factor exists iff k is even."""
    h0 = 2 + k
    edges = [(c, 2 + i) for i in range(k) for c in (0, 1)]
    edges += [(h0 + u, h0 + v) for u in range(q) for v in range(u + 1, q)]
    edges += [(0, h0), (0, h0 + 1)]
    return Graph.from_edges(h0 + q, edges)


class TestForcedEdges:
    def test_parity_gadget_family(self):
        t0 = time.perf_counter()
        for q in range(4, 21):
            for k in (2, 3, 4, 5):
                g = parity_gadget(q, k)
                res = has_even_factor(g)
                if k % 2:
                    # odd forced degree at b: decided by the parity test alone
                    assert (res.status, res.search_cost) == (NOT_EXISTS, 0)
                else:
                    assert res.status == EXISTS
                    assert verify_even_factor(g, res.certificate)
        assert time.perf_counter() - t0 < 2.0

    def test_forced_edges_alone_form_the_factor(self):
        # the forced edges already are a Hamiltonian cycle: the chord joins
        # the two odd-degree vertices, and G minus it is the certificate
        g = cycle(9).with_edge(0, 4)
        res = has_even_factor(g)
        assert (res.status, res.search_cost) == (EXISTS, 1)
        assert frozenset(res.certificate) == frozenset(cycle(9).edges())


def pinned_oracle_corpus():
    """A corpus that reaches every phase: the forest corpus (bridge prune,
    forced parity, odd-degree matching, gadget), parity gadgets, the
    GADGET_PARTS unions, and K_32."""
    graphs = forest_corpus()
    graphs += [parity_gadget(q, k) for q in range(4, 10) for k in range(2, 6)]
    graphs += [disjoint_union(parts) for parts in GADGET_PARTS]
    graphs.append(complete(32))
    return graphs


def oracle_equivalence_graphs():
    """test_acceptance.py::test_05's graphs, in its order: every connected
    graph on six labelled vertices, then 2,000 connected random draws."""
    pairs = list(combinations(range(6), 2))
    for code in range(1 << 15):
        g = Graph.from_edges(6, [pairs[i] for i in range(15) if code >> i & 1])
        if g.is_connected():
            yield g
    rng = SplitMix64(20240601)
    randoms = 0
    while randoms < 2000:
        n = 7 + rng.randrange(3)
        g = random_graph_with_edges(n, n + rng.randrange(17 - n), rng)
        if g.is_connected():
            randoms += 1
            yield g


def test_oracle_results_are_pinned():
    # status, cost and certificate over every phase
    lines = "".join(
        f"{r.status}|{r.search_cost}|{r.certificate}\n"
        for r in map(has_even_factor, pinned_oracle_corpus())
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "80d57c74544fd50c92b535468145753d27a573223cb1805718116bf4398ac768"
    )


def test_odd_degree_matching_certificates():
    # every cost-1 answer is G minus a perfect matching of its odd-degree
    # vertices; the other costs are the prunes' 0 and the gadget's 2
    costs = Counter()
    for g in [*pinned_oracle_corpus(), *oracle_equivalence_graphs()]:
        res = has_even_factor(g)
        costs[res.status, res.search_cost] += 1
        if res.search_cost == 1:
            assert res.status == EXISTS
            assert verify_even_factor(g, res.certificate)
            assert removes_a_perfect_matching_of_the_odd_vertices(g, res.certificate)
    assert set(costs) == {(NOT_EXISTS, 0), (EXISTS, 1), (EXISTS, 2), (NOT_EXISTS, 2)}


class TestCondition:
    def test_k6_holds(self):
        assert check_yan_kano_condition(complete(6)).holds

    def test_extremal_fails_at_the_core(self):
        rep = check_yan_kano_condition(extremal(8, 2))
        assert not rep.holds
        assert rep.witness == (0, 1)
        assert rep.witness_odd_components == 2

    def test_c8_fails(self):
        rep = check_yan_kano_condition(cycle(8))
        assert not rep.holds
        # witness validity re-checked independently
        g = cycle(8)
        assert odd_components_minus(g, rep.witness) >= len(rep.witness)
        assert rep.witness == (0, 2)

    def test_witness_is_always_a_real_violation(self):
        rng = SplitMix64(11)
        for _ in range(120):
            n = 4 + rng.randrange(6)
            m = n - 1 + rng.randrange(n)
            g = random_connected_graph(n, m, rng)
            rep = check_yan_kano_condition(g)
            if not rep.holds:
                assert odd_components_minus(g, rep.witness) == rep.witness_odd_components
                assert rep.witness_odd_components >= len(rep.witness) >= 2

    def test_matches_brute_force_over_every_s(self):
        # a wrong "holds" must fail too, not only a wrong witness; K_{k,k}
        # first violates at a side, |S| = n/2, the edge of the 2|S| > n skip
        def reference(g):
            for smask in range(1 << g.n):
                s = [v for v in range(g.n) if smask >> v & 1]
                if len(s) >= 2 and odd_components_minus(g, s) >= len(s):
                    return (False, tuple(s), odd_components_minus(g, s))
            return (True, None, None)

        graphs = [join(Graph.from_edges(k, []), Graph.from_edges(k, [])) for k in range(2, 6)]
        rng = SplitMix64(2020)
        for _ in range(100):
            n = 1 + rng.randrange(10)
            graphs.append(random_graph_with_edges(n, rng.randrange(n * (n - 1) // 2 + 1), rng))
        # the edge-bound prune is tight here: the extremal graph meets the
        # bound at s = delta with equality, and each removed edge drops below it
        for n, delta in ((8, 2), (10, 2), (12, 2), (12, 3)):
            edges = extremal(n, delta).edges()
            for k in range(4):
                dropped = set(rng.sample(k, len(edges)))
                graphs.append(Graph.from_edges(n, [e for i, e in enumerate(edges) if i not in dropped]))
        for g in graphs:
            rep = check_yan_kano_condition(g)
            assert rep.holds == reference(g)[0]
            assert_witness_violates(g, rep)
        k55 = check_yan_kano_condition(graphs[3])
        assert k55.witness == (0, 1, 2, 3, 4) and k55.witness_odd_components == 5

    def test_matches_the_walk_on_the_acceptance_draws(self):
        # the `check condition` line of every draw, hashed: a change of the
        # witness rule shows here even where the new witness is valid
        lines = []
        for g in acceptance_draws():
            rep = check_yan_kano_condition(g)
            assert rep.holds == walk_condition(g)[0]
            assert_witness_violates(g, rep)
            lines.append(
                "holds\n"
                if rep.holds
                else f"violated S={','.join(map(str, rep.witness))} "
                f"odd_components={rep.witness_odd_components}\n"
            )
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "c78561b8d5ecda334189ab67fa23719f1ca7ff7933e3fe2f2145980c2b30dad9"
        )

    def test_matches_the_walk_near_the_threshold(self, monkeypatch):
        # spies: both parities take the matching test, which decides "holds"
        # and needs an augmenting-path search on some pair
        entered, searches = [], []
        real_violation, real_augment = factor._violation, factor._augment

        def violation(adj):
            entered.append((len(adj), real_violation(adj)))
            return entered[-1][1]

        def augment(adj, mate, root, alive):
            found = real_augment(adj, mate, root, alive)
            # a search inside G - u - v, not one for G's own perfect matching
            if alive != (1 << len(adj)) - 1:
                searches.append(found < 0)
            return found

        monkeypatch.setattr(factor, "_violation", violation)
        monkeypatch.setattr(factor, "_augment", augment)
        rng = SplitMix64(3131)
        # odd orders at or below the edge bound of |S| = 2, which the prune
        # keeps, so the matching test decides
        odd = [
            random_graph_with_edges(n, comb(n - 3, 2) + 2 * n - 3 - rng.randrange(2 * n), rng)
            for n in (7, 9, 11, 13, 15)
            for _ in range(10)
        ]
        graphs = near_threshold_corpus()
        held = 0
        for g in graphs + odd:
            rep = check_yan_kano_condition(g)
            assert rep.holds == walk_condition(g)[0]
            assert_witness_violates(g, rep)
            held += rep.holds and g.n % 2 == 0
        # both answers are well represented
        assert 0.25 * len(graphs) < held < 0.95 * len(graphs)
        # both parities enter the matching test and get "holds" (0) there
        assert {n % 2 for n, witness in entered if not witness} == {0, 1}
        assert True in searches and False in searches

    def test_holds_is_bicriticality_past_16(self):
        # the condition holds iff every G - u - v has floor((n - 2)/2)
        # matched edges: a perfect matching at even n, one missing a single
        # vertex at odd n; networkx decides that independently
        import networkx as nx

        def bicritical(g):
            whole = nx.Graph(g.edges())
            whole.add_nodes_from(range(g.n))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    # a copy: matching on a subgraph view is about 2.5x slower
                    h = whole.copy()
                    h.remove_nodes_from((u, v))
                    if len(nx.max_weight_matching(h, maxcardinality=True)) != (g.n - 2) // 2:
                        return False
            return True

        def check(g, holds):
            rep = check_yan_kano_condition(g)
            assert rep.holds == bicritical(g) == holds
            assert_witness_violates(g, rep)
            return rep

        rng = SplitMix64(1824)
        for n in (18, 20, 22, 24):
            near = random_graph_with_edges(n, edge_threshold(n, 4) - 2, rng)
            for g, holds in ((extremal(n, 3), False), (near, True)):
                check(g, holds)
        # extremal(n, 3) holds at odd n, where its big clique is even;
        # K_3 v (K_{n-6} u 3K_1) leaves four odd components beside its core
        for n in (19, 23):
            near = random_graph_with_edges(n, edge_threshold(n, 4) - 2, rng)
            core = build_family(FamilySpec(3, (n - 6, 1, 1, 1)))
            rep = check(core, False)
            assert (rep.witness, rep.witness_odd_components) == ((0, 1, 2), 4)
            check(near, True)
        # past 24 vertices, where no subset walk could name the witness
        near = random_graph_with_edges(32, edge_threshold(32, 6) - 2, rng)
        check(extremal(32, 6), False)
        check(near, True)

    def test_size_cap_at_even_n(self, monkeypatch):
        # no vertex cap: K_n past 24 vertices holds by the edge prune alone,
        # with no matching work, and C_n reaches the matching test
        entered = []
        real_violation = factor._violation

        def violation(adj):
            entered.append(len(adj))
            return real_violation(adj)

        monkeypatch.setattr(factor, "_violation", violation)
        for n in (25, 26):
            assert check_yan_kano_condition(complete(n)).holds
        assert entered == []
        assert check_yan_kano_condition(cycle(25)).holds
        assert not check_yan_kano_condition(cycle(26)).holds
        assert entered == [25, 26]

    def test_augmenting_search_reaches_maximum_matchings(self):
        # one search per vertex from the empty matching, inside a random
        # vertex mask, against networkx; the sparse draws are rich in odd
        # cycles, so blossoms are contracted along the way
        import networkx as nx

        # A failed search returns its inner vertices T, whose blossoms leave
        # at least |T| + 1 odd components in G[alive] - T
        rng = SplitMix64(4242)
        failed = 0
        for i in range(400):
            n = 1 + rng.randrange(16)
            g = random_graph_with_edges(n, rng.randrange(min(comb(n, 2), 2 * n) + 1), rng)
            alive = (1 << n) - 1 & ~(rng.randrange(1 << n) if i % 2 else 0)
            mate = [-1] * n
            for v in mask_vertices(alive):
                if mate[v] < 0:
                    inner = factor._augment(g.adj, mate, v, alive)
                    if mate[v] >= 0:
                        assert inner == -1
                        continue
                    failed += 1
                    assert inner >= 0 and not inner & ~alive and not inner >> v & 1
                    rest = g.components(alive & ~inner)
                    assert sum(c.bit_count() & 1 for c in rest) >= inner.bit_count() + 1
            pairs = {(v, mate[v]) for v in range(n) if mate[v] > v}
            for u, v in pairs:
                assert mate[u] == v and g.has_edge(u, v) and alive >> u & 1 and alive >> v & 1
            h = nx.Graph(g.edges()).subgraph(mask_vertices(alive))
            assert len(pairs) == len(nx.max_weight_matching(h, maxcardinality=True))
        assert failed > 100

    def test_condition_implies_factor_on_even_corpus(self):
        # even order up to 12: whenever the condition holds, the oracle must
        # find a factor (zero counterexamples expected)
        rng = SplitMix64(271828)
        held = 0
        for _ in range(250):
            n = (6, 8, 10, 12)[rng.randrange(4)]
            m = n + rng.randrange(2 * n)
            g = random_connected_graph(n, min(m, n * (n - 1) // 2), rng)
            if check_yan_kano_condition(g).holds:
                held += 1
                assert has_even_factor(g).status == EXISTS
        assert held > 30
