import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenfactor.graph6 import (
    GraphParseError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
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
    merged_family,
    odd_components_minus,
    path,
)


def test_complete_edge_counts():
    assert complete(1).edge_count == 0
    assert complete(4).edge_count == 6
    assert all(d == 3 for d in complete(4).degrees())
    assert complete(7).edge_count == 21
    with pytest.raises(ValueError, match="non-negative"):
        complete(-1)
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle(2)


def test_disjoint_union():
    g = disjoint_union([complete(3), complete(1)])
    assert (g.n, g.edge_count) == (4, 3)
    assert len(g.components()) == 2
    assert disjoint_union([]).n == 0
    g = disjoint_union([complete(5), complete(1), complete(1)])
    assert (g.n, g.edge_count) == (7, 10)
    assert len(g.components()) == 3


def test_join_edge_count():
    g = join(complete(2), disjoint_union([complete(5), complete(1)]))
    assert g.n == 8
    assert g.edge_count == 1 + 10 + 0 + 12
    assert join(complete(1), complete(1)) == complete(2)
    assert join(complete(0), complete(5)) == complete(5)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_join_edge_formula_random(na, nb, data):
    def rand_graph(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, chosen)

    a, b = rand_graph(na), rand_graph(nb)
    assert join(a, b).edge_count == a.edge_count + b.edge_count + na * nb
    if na and nb:
        assert join(a, b).is_connected()


def test_degree_sum_is_twice_edges():
    for g in [complete(6), cycle(5), path(7), extremal(10, 3)]:
        assert sum(g.degrees()) == 2 * g.edge_count


def test_build_family():
    g = build_family(FamilySpec(2, (5, 1)))
    assert (g.n, g.edge_count) == (8, 23)
    assert build_family(FamilySpec(0, (6,))) == complete(6)
    g = build_family(FamilySpec(3, (7, 1, 1)))
    assert (g.n, g.edge_count) == (12, 51)


def _specs(max_n):
    """Every FamilySpec with 1 <= n <= max_n."""

    def partitions(total, cap):
        if total == 0:
            yield ()
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in range(1, max_n + 1):
        for s in range(n + 1):
            for parts in partitions(n - s, n - s):
                yield FamilySpec(s, parts)


def test_build_family_equals_composed_construction():
    specs = list(_specs(14))
    assert len(specs) == 1770
    for spec in specs:
        composed = join(complete(spec.s), disjoint_union([complete(p) for p in spec.parts]))
        assert build_family(spec) == composed, spec


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(2, (1, 5))  # not sorted
    with pytest.raises(ValueError):
        FamilySpec(2, (3, 0))
    with pytest.raises(ValueError):
        FamilySpec(-1, (3,))
    spec = merged_family(10, 2, 2, 1)
    assert spec == FamilySpec(2, (7, 1))
    with pytest.raises(ValueError):
        merged_family(5, 2, 4, 1)  # big part would undercut the fillers
    with pytest.raises(ValueError):
        merged_family(10, 2, 3, 3)  # big part smaller than the fillers


def test_family_labeling_is_core_then_parts():
    g = build_family(FamilySpec(2, (3, 1)))
    # core = {0,1} dominates, then K_3 on {2,3,4}, then the singleton 5
    assert g.degree(0) == g.degree(1) == 5
    assert g.has_edge(2, 3) and g.has_edge(3, 4)
    assert not g.has_edge(2, 5)
    assert g.degree(5) == 2


def test_extremal():
    g = extremal(8, 2)
    assert (g.n, g.edge_count, g.min_degree()) == (8, 23, 2)
    g = extremal(14, 3)
    assert (g.n, g.edge_count) == (14, 66 + 6)
    g = extremal(6, 3)  # boundary n = 2*delta: parts all singletons
    assert g.min_degree() == 3
    with pytest.raises(ValueError):
        extremal(4, 3)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        extremal(8, 0)


def test_odd_components_minus():
    g = extremal(8, 2)
    assert odd_components_minus(g, [0, 1]) == 2
    assert odd_components_minus(complete(6), [0, 1]) == 0
    assert odd_components_minus(complete(6), [0, 1, 2]) == 1
    assert odd_components_minus(complete(6), 0b111) == 1  # bitmask form
    with pytest.raises(ValueError):
        odd_components_minus(complete(3), [5])


def test_extremal_core_removal_leaves_delta_odd_parts():
    # for even n every part of the extremal family has odd order
    for delta in range(2, 6):
        for n in range(2 * delta + 2, 2 * delta + 21, 2):
            g = extremal(n, delta)
            assert odd_components_minus(g, range(delta)) == delta


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong length
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="out-of-range"):
        Graph(2, (0b110, 0b001))  # vertex 0 names vertex 2


def test_with_edge_and_non_edges():
    g = cycle(4)
    assert set(g.non_edges()) == {(0, 2), (1, 3)}
    g2 = g.with_edge(0, 2)
    assert g2.edge_count == 5
    with pytest.raises(ValueError):
        g2.with_edge(0, 2)
    for u, v in [(0, 5), (5, 0), (-1, 2), (2, -1), (-1, -1)]:
        with pytest.raises(ValueError):
            cycle(5).with_edge(u, v)


# --- trusted constructors ----------------------------------------------------
# The builders skip `Graph.__post_init__`; full validation of a direct
# `Graph(n, adj)` is the reference their outputs are checked against.


def assert_valid(g):
    assert type(g) is Graph
    assert Graph(g.n, g.adj) == g


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@given(st.integers(min_value=0, max_value=9), st.data())
@settings(max_examples=80, deadline=None)
def test_from_edges_output_is_valid(n, data):
    # either orientation, repeats allowed
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = data.draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]))
        if n >= 2 else st.just([])
    )
    g = Graph.from_edges(n, edges)
    assert_valid(g)
    assert set(g.edges()) == {(min(e), max(e)) for e in edges}


@given(st.integers(min_value=0, max_value=14))
@settings(max_examples=30, deadline=None)
def test_named_families_are_valid(n):
    assert_valid(complete(n))
    assert_valid(path(n))
    if n >= 3:
        assert_valid(cycle(n))


@given(st.lists(graphs(max_n=5), max_size=4), graphs(), graphs())
@settings(max_examples=60, deadline=None)
def test_union_and_join_outputs_are_valid(parts, g, h):
    assert_valid(disjoint_union(parts))
    assert_valid(join(g, h))


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=1, max_value=5), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_build_family_output_is_valid(s, parts):
    assert_valid(build_family(FamilySpec(s, tuple(sorted(parts, reverse=True)))))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_extremal_output_is_valid(delta, extra):
    assert_valid(extremal(2 * delta + extra, delta))


@given(graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_with_edge_output_is_valid(g, data):
    missing = g.non_edges()
    if missing:
        u, v = data.draw(st.sampled_from(missing))
        if data.draw(st.booleans()):
            u, v = v, u
        g2 = g.with_edge(u, v)
        assert_valid(g2)
        assert g2.edge_count == g.edge_count + 1


@given(graphs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_parsed_roundtrips_are_valid(g):
    assert_valid(parse_graph6(write_graph6(g)))
    assert_valid(parse_edge_list(write_edge_list(g)))


@given(st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=10))
@settings(max_examples=150, deadline=None)
def test_parse_graph6_arbitrary_input_is_valid_or_rejected(text):
    try:
        g = parse_graph6(text)
    except GraphParseError:
        return
    assert_valid(g)


_line = st.one_of(
    st.tuples(st.integers(-2, 7), st.integers(-2, 7)).map(lambda e: f"{e[0]} {e[1]}"),
    st.integers(-2, 7).map(str),
    st.sampled_from(["", "# note", "1 2 3", "x y"]),
)


@given(st.lists(_line, max_size=8))
@settings(max_examples=150, deadline=None)
def test_parse_edge_list_arbitrary_input_is_valid_or_rejected(lines):
    try:
        g = parse_edge_list("\n".join(lines))
    except GraphParseError:
        return
    assert_valid(g)
