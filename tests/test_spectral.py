import hashlib
from math import comb, cos, pi, sqrt

import numpy as np
import pytest

from evenfactor import spectral
from evenfactor.graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete,
    cycle,
    disjoint_union,
    extremal,
    path,
)
from evenfactor.rng import SplitMix64, complete_minus_random_edges
from evenfactor.spectral import (
    CubicPoly,
    RootFindingError,
    adjacency_matrix,
    char_poly,
    largest_real_root,
    spectral_radii,
    spectral_radius,
    split_quotient,
)

# frozen to full double precision by two independent routes (dense
# eigensolver and the quotient cubic)
RHO_EXTREMAL_8_2 = 6.0969240955970605


def test_complete_graph():
    res = spectral_radius(complete(5))
    assert res.rho == pytest.approx(4.0, abs=1e-10)
    assert res.residual <= 1e-10


def test_cycle_graph():
    assert spectral_radius(cycle(6)).rho == pytest.approx(2.0, abs=1e-10)


def test_extremal_8_2():
    assert spectral_radius(extremal(8, 2)).rho == pytest.approx(
        RHO_EXTREMAL_8_2, abs=1e-8
    )


def test_matches_dense_eigensolver():
    from evenfactor.rng import SplitMix64, random_graph_with_edges

    rng = SplitMix64(13)
    for _ in range(60):
        n = 2 + rng.randrange(11)
        m = rng.randrange(n * (n - 1) // 2 + 1)
        g = random_graph_with_edges(n, m, rng)
        ours = spectral_radius(g).rho
        ref = float(np.linalg.eigvalsh(adjacency_matrix(g)).max()) if n else 0.0
        assert ours == pytest.approx(ref, abs=1e-8)


def test_bipartite_graphs_converge():
    # bipartite spectra come in +/- pairs; the radius is the positive one
    star = build_family(FamilySpec(1, (1,) * 7))
    res = spectral_radius(star)
    assert res.rho == pytest.approx(np.sqrt(7), abs=1e-9)
    assert spectral_radius(cycle(8)).rho == pytest.approx(2.0, abs=1e-9)


def test_disconnected_takes_component_max():
    g = disjoint_union([complete(4), cycle(5)])
    assert spectral_radius(g).rho == pytest.approx(3.0, abs=1e-10)
    g = disjoint_union([complete(1), complete(1)])
    assert spectral_radius(g).rho == 0.0


def test_range_invariant():
    from evenfactor.rng import SplitMix64, random_graph_with_edges

    rng = SplitMix64(17)
    for _ in range(40):
        n = 1 + rng.randrange(10)
        m = rng.randrange(n * (n - 1) // 2 + 1)
        g = random_graph_with_edges(n, m, rng)
        rho = spectral_radius(g).rho
        assert 2 * g.edge_count / g.n - 1e-9 <= rho <= g.n - 1 + 1e-9


def test_empty_rejected():
    with pytest.raises(ValueError):
        spectral_radius(complete(0))


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@pytest.mark.parametrize(
    "graphs, exact",
    [
        pytest.param(
            [path(n) for n in range(1, 201)],
            [2 * cos(pi / (n + 1)) for n in range(1, 201)],
            id="paths",
        ),
        pytest.param([cycle(9), cycle(24)], [2.0, 2.0], id="cycles"),
        pytest.param([complete_bipartite(1, 7)], [sqrt(7)], id="star"),
        pytest.param([complete_bipartite(3, 5)], [sqrt(15)], id="bipartite"),
        pytest.param([complete(2), complete(13)], [1.0, 12.0], id="complete"),
        pytest.param([PETERSEN], [3.0], id="petersen"),
        pytest.param(
            [disjoint_union([cycle(5), complete(4), path(3)])], [3.0], id="disjoint-union"
        ),
    ],
)
def test_closed_form_radii(graphs, exact):
    # radii known in closed form, to 1e-12 with a residual to match
    for r, want in zip(spectral_radii(graphs), exact, strict=True):
        assert abs(r.rho - want) <= 1e-12
        assert r.residual <= 1e-12


def test_adjacency_matrix_from_bitmasks():
    g = disjoint_union([cycle(5), complete(4), path(3)])
    a = adjacency_matrix(g)
    assert a.shape == (12, 12) and a.dtype == np.float64
    assert [tuple(int(x) for x in np.flatnonzero(row)) for row in a] == [
        tuple(u for u in range(g.n) if g.has_edge(v, u)) for v in range(g.n)
    ]
    assert adjacency_matrix(complete(0)).shape == (0, 0)


def pinned_graphs():
    """Connected draws, extremal graphs and one disconnected graph."""
    rng = SplitMix64(2024)
    graphs = [
        complete_minus_random_edges(n, rng.randrange(comb(n, 2) + 1), rng)
        for n in (4, 6, 8, 10, 12, 16, 24)
        for _ in range(30)
    ]
    graphs += [extremal(n, d) for n, d in ((8, 2), (14, 3), (20, 4), (26, 5))]
    graphs.append(disjoint_union([cycle(5), complete(4), path(3)]))
    return graphs


def bits(r):
    return (r.rho.hex(), r.iterations, r.residual.hex())


def test_spectral_output_is_pinned():
    # every bit of (rho, iterations, residual) on the pinned graphs; any
    # change to the solver's floating-point operations or their order
    # moves this hash
    graphs = pinned_graphs()
    lines = "".join(
        "{} {} {}\n".format(*bits(r)) for r in map(spectral_radius, graphs)
    )
    assert len(graphs) == 215
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "b0c47f5701cfacfc631e5e70c6094e14c4e8fb2354596f2c9b16e45b777b023c"
    )


def test_printed_radii_are_pinned():
    # the `rho` line `evenfactor spectral` prints for each pinned graph; a
    # change to the radii below print precision must not move it
    lines = "".join(f"rho {spectral_radius(g).rho:.12f}\n" for g in pinned_graphs())
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "274a3fbd82bbc7781a404544cfa56f02d1bbc5d840156aebd06ed9ca6196d2d7"
    )


def mixed_graphs(seed, count):
    """Random graphs of mixed orders; a quarter are disjoint unions of a few
    small parts, so equal-order components of one graph share a stack."""
    rng = SplitMix64(seed)
    graphs = []
    for _ in range(count):
        if rng.randrange(4):
            n = 1 + rng.randrange(20)
            graphs.append(complete_minus_random_edges(n, rng.randrange(comb(n, 2) + 1), rng))
        else:
            parts = []
            for _ in range(2 + rng.randrange(3)):
                k = 1 + rng.randrange(6)
                parts.append(complete_minus_random_edges(k, rng.randrange(comb(k, 2) + 1), rng))
            graphs.append(disjoint_union(parts))
    return graphs


def first_error(graphs):
    """The exception the loop [spectral_radius(g) for g in graphs] raises."""
    for g in graphs:
        try:
            spectral_radius(g)
        except ValueError as exc:
            return exc
    return None


def assert_same_error(graphs):
    expected = first_error(graphs)
    assert expected is not None
    with pytest.raises(type(expected)) as exc:
        spectral_radii(graphs)
    assert str(exc.value) == str(expected)


class TestSpectralRadii:
    def test_pinned_graphs_bitwise(self):
        graphs = pinned_graphs()
        assert list(map(bits, spectral_radii(graphs))) == [
            bits(spectral_radius(g)) for g in graphs
        ]

    def test_mixed_orders_bitwise(self):
        graphs = mixed_graphs(31, 300)
        # the draws do exercise stacks of several same-order components
        assert any(
            len({c.bit_count() for c in g.components()}) < len(g.components())
            for g in graphs
        )
        assert list(map(bits, spectral_radii(graphs))) == [
            bits(spectral_radius(g)) for g in graphs
        ]
        # the graphs are read once, so a generator will do
        assert spectral_radii(g for g in graphs) == spectral_radii(graphs)

    def test_stack_cap_does_not_change_results(self, monkeypatch):
        # three order-10 blocks a stack: six full stacks, then one block alone
        graphs = [complete_minus_random_edges(10, e, SplitMix64(e)) for e in range(1, 20)]
        assert all(g.is_connected() for g in graphs)
        expected = [bits(spectral_radius(g)) for g in graphs]
        monkeypatch.setattr(spectral, "STACK_BYTES", 3 * 8 * 10 * 10)
        assert list(map(bits, spectral_radii(graphs))) == expected

    def test_converged_blocks_ride_along_masked(self, monkeypatch):
        # five order-12 graphs, one stack, one solve; each graph's result is
        # still its solo one
        tail = [(i, i + 1) for i in range(3, 11)]
        lollipop = Graph.from_edges(12, [(i, j) for i in range(4) for j in range(i)] + tail)
        tadpole = Graph.from_edges(12, [(0, 1), (1, 2), (2, 0), (2, 3)] + tail)
        graphs = [path(12), complete(12), lollipop, tadpole, complete(12)]
        solo = [spectral_radius(g) for g in graphs]
        shapes = []
        kernel = spectral._solve_stack

        def spy(stack):
            shapes.append(stack.shape)
            return kernel(stack)

        monkeypatch.setattr(spectral, "_solve_stack", spy)
        monkeypatch.setattr(spectral, "STACK_BYTES", len(graphs) * 8 * 12 * 12)
        assert list(map(bits, spectral_radii(graphs))) == list(map(bits, solo))
        assert shapes == [(5, 12, 12)]

    def test_single_vertices(self):
        graphs = [complete(1), disjoint_union([complete(1)] * 3), complete(1)]
        assert [bits(r) for r in spectral_radii(graphs)] == [("0x0.0p+0", 0, "0x0.0p+0")] * 3

    def test_empty_list(self):
        assert spectral_radii([]) == []

    def test_zero_vertex_graph_errors_match(self):
        assert_same_error([complete(0), complete(3)])
        assert_same_error([cycle(5), complete(0), path(4)])
        # the empty graph is caught as it is read, before any solve, so it
        # raises even after a graph that comes first
        with pytest.raises(ValueError, match="spectral radius needs at least one vertex"):
            spectral_radii([path(20), complete(0)])


class TestQuotients:
    def test_rows_are_pinned(self):
        # every merged-core quotient (n, s) and small-cliques quotient
        # (n, s, delta) with n <= 40, "err" where the blocks are empty; any
        # change to a builder's rows or to where it refuses moves this hash
        def rows(build, *args):
            try:
                return build(*args)
            except ValueError:
                return "err"

        lines = []
        for n in range(2, 41):
            for s in range(1, n):
                lines.append(f"m {n} {s} {rows(split_quotient, n, s, 1)}\n")
                for delta in range(1, n):
                    q = rows(split_quotient, n, s, delta + 1 - s)
                    lines.append(f"q {n} {s} {delta} {q}\n")
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "0c0f7defcd3f3ccf39e15e9c13ac8d88ad815f18437271fc697a481162221627"
        )

    def test_extremal_8_2_rows(self):
        q = split_quotient(8, 2, 1)
        assert q == ((1, 5, 1), (2, 4, 0), (2, 0, 0))

    def test_merged_core_coincides_at_delta(self):
        # at s = delta the merged core is the extremal graph's quotient
        q = split_quotient(8, 2, 1)
        g = extremal(8, 2)
        blocks = [range(0, 2), range(2, 7), range(7, 8)]
        for bi, block in enumerate(blocks):
            for v in block:
                counts = [sum(1 for u in blk if g.has_edge(u, v)) for blk in blocks]
                assert counts == list(q[bi])

    def test_small_cliques_rows(self):
        assert split_quotient(14, 3, 2) == (
            (2, 7, 4),
            (3, 6, 0),
            (3, 0, 1),
        )

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ValueError):
            split_quotient(5, 3, 1)
        with pytest.raises(ValueError):
            split_quotient(8, 1, 1)
        with pytest.raises(ValueError):
            split_quotient(8, 4, 0)

    def test_row_sums_equal_realized_block_degrees(self):
        # equitability in the concrete graph: each row sums to the degree of
        # any vertex in its block
        cases = [
            (split_quotient(10, 3, 1), FamilySpec(3, (5, 1, 1))),
            (split_quotient(14, 3, 2), FamilySpec(3, (7, 2, 2))),
            (split_quotient(12, 4, 1), FamilySpec(4, (5, 1, 1, 1))),
        ]
        for q, spec in cases:
            g = build_family(spec)
            s = spec.s
            big = spec.parts[0]
            borders = [0, s, s + big, g.n]
            for bi in range(3):
                v = borders[bi]
                assert sum(q[bi]) == g.degree(v)

    def test_block_to_block_counts_are_constant(self):
        # every vertex of a block has the same number of neighbours in each
        # block (the partition really is equitable)
        q = split_quotient(16, 4, 2)
        spec = FamilySpec(4, (16 - 4 - 2 * 3, 2, 2, 2))
        g = build_family(spec)
        blocks = [range(0, 4), range(4, 10), range(10, 16)]
        for bi, block in enumerate(blocks):
            for v in block:
                counts = [
                    sum(1 for u in blk if g.has_edge(u, v) and u != v)
                    for blk in blocks
                ]
                assert counts == list(q[bi])


class TestCharPoly:
    def test_extremal_8_2(self):
        p = char_poly(split_quotient(8, 2, 1))
        assert p.coefficients() == (1, -5, -8, 8)

    def test_zero_matrix(self):
        assert char_poly(((0, 0, 0),) * 3).coefficients() == (1, 0, 0, 0)

    def test_extremal_closed_form_grid(self):
        for n in range(4, 201):
            for delta in range(2, 13):
                if n < 2 * delta:
                    continue
                p = char_poly(split_quotient(n, delta, 1))
                assert p.coefficients() == (
                    1,
                    -(n - delta - 1),
                    -(n + delta**2 - 2 * delta),
                    delta**2 * n - delta * n - 2 * delta**3 + 2 * delta**2,
                )

    def test_merged_core_closed_form_random(self):
        from evenfactor.rng import SplitMix64

        rng = SplitMix64(8)
        for _ in range(20):
            s = 2 + rng.randrange(8)
            n = 2 * s + rng.randrange(30)
            p = char_poly(split_quotient(n, s, 1))
            assert p.coefficients() == (
                1,
                -(n - s - 1),
                -(n + s**2 - 2 * s),
                s**2 * n - s * n - 2 * s**3 + 2 * s**2,
            )

    def test_matches_sympy_symbolically(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for args in [(17, 4, 1), (20, 5, 1), (18, 3, 3)]:
            q = split_quotient(*args)
            ours = char_poly(q)
            M = sympy.Matrix([list(r) for r in q])
            ref = sympy.Poly(
                sympy.expand(sympy.det(x * sympy.eye(3) - M)), x
            ).all_coeffs()
            assert tuple(int(c) for c in ref) == ours.coefficients()


class TestLargestRealRoot:
    def test_product_of_linear_factors(self):
        p = CubicPoly(c2=-6, c1=11, c0=-6)  # (x-1)(x-2)(x-3)
        assert largest_real_root(p, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_extremal_cubic(self):
        p = CubicPoly(c2=-5, c1=-8, c0=8)
        root = largest_real_root(p, 6.0)
        assert root == pytest.approx(RHO_EXTREMAL_8_2, abs=1e-11)
        # the cubic changes sign inside [6.09, 6.10]
        assert p(6.09) < 0 < p(6.10)

    def test_root_below_bound_is_an_error(self):
        p = CubicPoly(c2=-6, c1=11, c0=-6)
        with pytest.raises(RootFindingError):
            largest_real_root(p, 10.0)

    def test_double_root(self):
        # (x-2)^2 (x+1) = x^3 - 3x^2 + 4
        p = CubicPoly(c2=-3, c1=0, c0=4)
        assert largest_real_root(p, 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_quotient_root_exceeds_clique_bound(self):
        for n in range(6, 60, 2):
            for delta in (2, 3, 4):
                if n < 2 * delta:
                    continue
                p = char_poly(split_quotient(n, delta, 1))
                assert largest_real_root(p, float(n - delta)) > n - delta


def test_quotient_root_equals_graph_radius():
    # equitable-partition eigenvalue transfer at desk scale
    for n, delta in [(8, 2), (12, 2), (14, 3), (16, 4), (20, 5)]:
        g = extremal(n, delta)
        rho = spectral_radius(g).rho
        root = largest_real_root(
            char_poly(split_quotient(n, delta, 1)), float(n - delta)
        )
        assert abs(rho - root) <= 1e-8
