"""Exact even-factor existence oracles and the odd-component condition.

An even factor is a spanning subgraph with every vertex degree even and
at least 2.  Every all-even-degree edge set is an element of the GF(2)
cycle space, so a vertex on no cycle rules a factor out: the bridge prune
looks for a vertex on no fundamental cycle of a spanning forest.  Edges are
numbered in row order, the order of Graph.edges(), and vertex v's
incidence mask holds the bits of its edges; in a simple graph the masks of
u and v share exactly the bit of edge uv, which is how the spanning-forest
walk finds its tree edges.  A graph with n >= 3 and minimum degree at least
n/2 skips the walk: it is Hamiltonian (Dirac, Some theorems on abstract
graphs, Proc. London Math. Soc. 2, 1952), so every vertex lies on a cycle,
and the answer, certificate and cost are those the walk would give.

Both edges at a degree-2 vertex lie in every even factor; call these edges
F.  An even subgraph containing F exists iff every component of G - F
holds an even number of vertices of odd F-degree, since the rest of it is
a T-join of G - F for those vertices T (Edmonds and Johnson, Matching,
Euler tours and the Chinese postman, Math. Programming 5, 1973).  In each
component the vertices of odd F-degree and those of odd degree in G have
the same count mod 2, because degrees in G - F sum to an even number, so
the test counts G's odd-degree vertices.  With no degree-2 vertex nothing
is forced and the parity test does not run.

Once every degree is at least 2, G minus a perfect matching of its
odd-degree vertices is an even factor: each odd vertex loses one edge and
keeps at least 2.  One perfect-matching test on the subgraph the
odd-degree vertices induce looks for such a matching, and the certificate
is read straight off the adjacency masks: row by row, each vertex's
neighbours above it less its mate, so the edges come in the order of
Graph.edges() with no edge list to filter.

When there is none, one perfect-matching test on Tutte's gadget decides.
An even factor is a parity factor whose degree sets have gaps of length 1,
and Tutte's gadget reduces it to a perfect matching (Lovasz, The
factorization of graphs II, 1972; Cornuejols, General factors of graphs,
1988).  Edge i = uv becomes ports 2i at u and 2i + 1 at v, joined
to each other; a vertex of degree d >= 2 gets d - 2 inner vertices, joined
to each other and to all of its ports.  Edge i is in the factor iff its
ports are matched to each other.  A vertex with f factor edges sends its
other d - f ports to d - f of its inner vertices, so f >= 2, and the f - 2
left over pair up, so f is even.  So a perfect matching is an even factor,
and every even factor gives one.

The Yan-Kano condition o(G-S) < |S| for every |S| >= 2 holds outright when
e(G) passes edge_threshold(n, 2), the largest edge bound of a violating
size (see check_yan_kano_condition).  Otherwise one predicate decides it at
both parities.  Since o(G-S) has the parity of n - |S|, the condition says
o(G-S) <= |S| - 2 at even n and o(G-S) <= |S| - 1 at odd n.  Every S holds
some pair u, v; with S = T + {u, v}, Tutte's theorem on G - u - v makes that
"G - u - v has a perfect matching" at even n (G is bicritical; Lovasz and
Plummer, Matching Theory), and Berge's formula makes it "G - u - v has a
matching missing one vertex" at odd n, which holds iff G + z - u - v has a
perfect matching for an apex z joined to every vertex.  The test takes one
perfect matching M of G, or of G + z, and per pair at most one Edmonds
augmenting-path search between the two vertices M leaves exposed.  A failed
search names the witness: its |T| + 1 blossoms are odd components of
G - u - v - T for its inner vertices T, at least |T| + 2 at even order, so
S = T + {u, v}, less z (always inner), violates the condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graphs import Edge, Graph, mask_vertices
from .thresholds import edge_threshold

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNKNOWN = "unknown"

NAIVE_EDGE_CAP = 24


@dataclass(frozen=True)
class EvenFactorResult:
    status: str
    certificate: tuple[Edge, ...] | None
    search_cost: int


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the odd-components test o(G-S) < |S| over all |S| >= 2."""

    holds: bool
    witness: tuple[int, ...] | None = None
    witness_odd_components: int | None = None


def _forest(g: Graph) -> tuple[list[Edge], list[int], list[int]]:
    """Edges of g in row order (the order of g.edges()), per vertex the mask
    of the edge bits at it, and the fundamental-cycle edge masks of a
    spanning forest's chords."""
    edges = g.edges()
    incident = [0] * g.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    # path[v]: mask of the tree edges from v up to its root; seen holds the
    # vertices reached so far and tree the edge bits of the forest
    path = [0] * g.n
    seen = tree = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            m = g.adj[v] & ~seen
            seen |= m
            while m:
                b = m & -m
                u = b.bit_length() - 1
                m ^= b
                # in a simple graph two incidence masks share one edge bit
                bit = incident[u] & incident[v]
                path[u] = path[v] | bit
                tree |= bit
                stack.append(u)
    # the two root paths share their part above the meeting vertex, which
    # the XOR cancels, leaving the chord's fundamental cycle
    basis = [
        (1 << i) ^ path[u] ^ path[v]
        for i, (u, v) in enumerate(edges)
        if not tree >> i & 1
    ]
    return edges, incident, basis


def cycle_space_basis(g: Graph) -> list[frozenset[Edge]]:
    """Fundamental cycles of a spanning forest: a basis of the cycle space,
    m - n + c elements, every one with all vertex degrees even."""
    edges, _, basis = _forest(g)
    # each mask's binary digits, lowest first, select the edges
    return [frozenset(compress(edges, map(int, bin(mask)[:1:-1]))) for mask in basis]


def has_even_factor(g: Graph) -> EvenFactorResult:
    """Decide even-factor existence: the bridge prune, the forced-edge parity
    test, a perfect matching of the odd-degree vertices, then Tutte's
    gadget.  The prune's forest walk is skipped when n >= 3 and the minimum
    degree is at least n/2 (Dirac), with the same result.  Never "unknown";
    search_cost counts the perfect-matching tests run: 0 when a prune
    decides, 1 for the odd-degree matching, 2 for the gadget.  A cost-1
    certificate is g minus that matching, read off g.adj row by row in the
    order of g.edges(); a cost-2 one is the gadget's factor in that order."""
    n = g.n
    if n == 0:
        return EvenFactorResult(EXISTS, (), 0)
    full = (1 << n) - 1
    if n < 3 or 2 * g.min_degree() < n:
        _, incident, basis = _forest(g)

        def cover(mask: int) -> int:
            c = 0
            for v in range(n):
                if mask & incident[v]:
                    c |= 1 << v
            return c

        # a vertex on no fundamental cycle lies on no cycle at all: only
        # bridges remain at it, and no cycle-space element can cover it
        union = 0
        for b in basis:
            union |= cover(b)
        if union != full:
            return EvenFactorResult(NOT_EXISTS, None, 0)
    # otherwise Dirac: n >= 3 and minimum degree >= n/2 make g Hamiltonian,
    # so every vertex lies on a cycle and the prune cannot fire

    # the edges F at degree-2 vertices lie in every even factor, and the rest
    # of a factor is a T-join of G - F for T the vertices of odd F-degree:
    # one exists iff each component of G - F holds an even number of them.
    # A degree-2 vertex is a component of its own, with F-degree 2; off
    # them G - F is G's induced subgraph, where a component holds as many
    # vertices of odd F-degree as of odd degree, mod 2 (handshake lemma).
    # With no degree-2 vertex that count is even in every component of G
    odd = two = 0
    for v, row in enumerate(g.adj):
        d = row.bit_count()
        odd |= (d & 1) << v
        two |= (d == 2) << v
    if two and any((c & odd).bit_count() & 1 for c in g.components(full & ~two)):
        return EvenFactorResult(NOT_EXISTS, None, 0)

    # the bridge prune left every degree at least 2, so removing a perfect
    # matching of the odd-degree vertices leaves an even factor
    mate, failed = _perfect_matching(g.adj, odd)
    if failed < 0:
        # g minus the matching, read off the rows in the order of g.edges():
        # v's neighbours above v, less its mate
        cert = []
        for v, row in enumerate(g.adj):
            m = row >> v + 1 << v + 1
            if mate[v] > v:
                m ^= 1 << mate[v]
            while m:
                b = m & -m
                cert.append((v, b.bit_length() - 1))
                m ^= b
        return EvenFactorResult(EXISTS, tuple(cert), 1)
    cert = _gadget_factor(g)
    return EvenFactorResult(NOT_EXISTS if cert is None else EXISTS, cert, 2)


def _gadget_factor(g: Graph) -> tuple[Edge, ...] | None:
    """An even factor of g read off a perfect matching of Tutte's gadget (see
    the module docstring), or None if it has none.  g has minimum degree at
    least 2."""
    edges = g.edges()
    ports = [0] * g.n
    for i, (u, v) in enumerate(edges):
        ports[u] |= 1 << 2 * i
        ports[v] |= 2 << 2 * i
    # inner vertices are numbered after the ports, vertex by vertex; inner[v]
    # holds v's
    top = 2 * len(edges)
    inner, inner_rows = [], []
    for p in ports:
        d = p.bit_count()
        clique = (1 << d - 2) - 1 << top
        inner.append(clique)
        inner_rows += [p | clique ^ 1 << w for w in range(top, top + d - 2)]
        top += d - 2
    rows = []
    for i, (u, v) in enumerate(edges):
        rows += [2 << 2 * i | inner[u], 1 << 2 * i | inner[v]]
    mate, failed = _perfect_matching(tuple(rows + inner_rows), (1 << top) - 1)
    if failed >= 0:
        return None
    return tuple(e for i, e in enumerate(edges) if mate[2 * i] == 2 * i + 1)


def has_even_factor_naive(g: Graph) -> EvenFactorResult:
    """Brute-force reference: scan all 2^m edge subsets in increasing bitmask
    order.  Independent of the cycle-space machinery; never "unknown"."""
    import numpy as np

    m = g.edge_count
    if m > NAIVE_EDGE_CAP:
        raise ValueError(f"naive oracle capped at {NAIVE_EDGE_CAP} edges, got {m}")
    edges = g.edges()
    inc = np.zeros((max(m, 1), g.n), dtype=np.float32)
    for i, (u, v) in enumerate(edges):
        inc[i, u] = 1.0
        inc[i, v] = 1.0
    total = 1 << m
    shifts = np.arange(m, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((ids[:, None] >> shifts) & 1).astype(np.float32)
        deg = bits @ inc if m else np.zeros((len(ids), g.n), dtype=np.float32)
        ok = ((deg % 2) == 0).all(axis=1) & (deg != 0).all(axis=1)
        hits = np.nonzero(ok)[0]
        if hits.size:
            subset = start + int(hits[0])
            cert = tuple(edges[i] for i in range(m) if subset >> i & 1)
            return EvenFactorResult(EXISTS, cert, subset + 1)
    return EvenFactorResult(NOT_EXISTS, None, total)


def verify_even_factor(g: Graph, certificate: tuple[Edge, ...]) -> bool:
    """Spanning, all degrees even and >= 2, every edge an edge of g, listed
    once in either orientation, between labels in [0, n)."""
    n = g.n
    deg = [0] * n
    seen = set()
    for u, v in certificate:
        key = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n) or not g.has_edge(u, v) or key in seen:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return all(x >= 2 and x % 2 == 0 for x in deg)


def check_yan_kano_condition(g: Graph) -> ConditionReport:
    """Test o(G-S) < |S| for every S with |S| >= 2 (the Yan-Kano sufficient
    condition for an even factor in even-order graphs).

    Only sizes 2 <= s <= n/2 can violate (o(G-S) <= n - s), and only those
    whose edge bound edge_threshold(n, s) reaches e(G): G-S must split n-s
    vertices into at least s components, and by convexity of C(k,2) the most
    edges G can then have is C(s,2) + s(n-s) + C(n-2s+1, 2), one part of
    n-2s+1 vertices beside s-1 singletons, all joined to S.  That is
    C(n-s+1, 2) + s(s-1), the edge count of K_s v (K_{n-2s+1} u (s-1)K_1),
    convex in s; s = 2 beats s = n/2 by (n-4)(n-6)/8 at even n and by
    (n-3)(n-5)/8 at odd n, so past edge_threshold(n, 2) the condition holds.
    Otherwise _violation(g.adj) decides it; a failure's witness is the least
    failing pair u, v (or an edge, see there) plus the failed search's inner
    vertices: a violating S, not always the least one.
    """
    n = g.n
    if n < 4 or edge_threshold(n, 2) < g.edge_count:
        return ConditionReport(holds=True)
    witness = _violation(g.adj)
    if not witness:
        return ConditionReport(holds=True)
    odd = sum(c.bit_count() & 1 for c in g.components((1 << n) - 1 & ~witness))
    return ConditionReport(False, mask_vertices(witness), odd)


def _violation(adj: tuple[int, ...]) -> int:
    """0 if every G - u - v, u != v, has floor((n-2)/2) matched edges (for
    n >= 4), else S: u, v and a failed search's inner vertices in G - u - v,
    or at odd n (Berge) in G + z - u - v, z an apex joined to every vertex.
    (u, v) is the least failing pair, or, if G (or G + z) has no perfect
    matching, G's first edge (uv would complete one), else (0, 1)."""
    pairs = (1 << len(adj)) - 1
    if len(adj) % 2:
        adj = tuple(row | 1 << len(adj) for row in adj) + (pairs,)
    n = len(adj)
    full = (1 << n) - 1
    mate, failed = _perfect_matching(adj, full)
    if failed >= 0:
        u, low = next(
            ((u, m & -m) for u, row in enumerate(adj) if (m := row & pairs >> (u + 1) << (u + 1))),
            (0, 2),
        )
        return (1 << u | low | _augment_all(adj, [-1] * n, full & ~(1 << u | low))) & pairs
    # mates_of_neighbours[y]: the mates of y's neighbours, so that x - a -
    # M(a) - y is an augmenting path for every a in adj[x] &
    # mates_of_neighbours[y]; with x, y not adjacent no such a is u, v, x, y
    mates_of_neighbours = []
    for row in adj:
        acc = 0
        while row:
            low = row & -row
            acc |= 1 << mate[low.bit_length() - 1]
            row ^= low
        mates_of_neighbours.append(acc)
    for u in range(n):
        x = mate[u]
        # M without ux and vy leaves x and y = M(v) exposed in G - u - v.
        # v = x keeps M without uv, and v among the mates of x's neighbours
        # has the edge xy: only the other v need a path, in increasing order
        pending = pairs >> (u + 1) << (u + 1) & ~(1 << x | mates_of_neighbours[x])
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            y = mate[v]
            if adj[x] & mates_of_neighbours[y]:
                continue
            split = mate[:]
            split[u] = split[v] = split[x] = split[y] = -1
            inner = _augment(adj, split, x, full & ~(1 << u | low))
            if inner >= 0:
                return (1 << u | low | inner) & pairs
    return 0


def _perfect_matching(adj: tuple[int, ...], alive: int) -> tuple[list[int], int]:
    """A matching of adj inside the vertex mask alive, greedy and then
    augmented from each exposed vertex: its mates (mate[v] is v's partner,
    or -1), and -1 once it is perfect on alive, else the inner vertices of
    the first search that fails."""
    mate = [-1] * len(adj)
    free = alive
    for v, row in enumerate(adj):
        m = row & free
        if free >> v & 1 and m:
            u = (m & -m).bit_length() - 1
            mate[v], mate[u] = u, v
            free ^= 1 << v | 1 << u
    return mate, _augment_all(adj, mate, alive)


def _augment_all(adj: tuple[int, ...], mate: list[int], alive: int) -> int:
    """Augment mate from each exposed vertex of alive: -1 once it is perfect
    on alive, else the inner vertices of the first search that fails."""
    for v in mask_vertices(alive):
        if mate[v] < 0:
            inner = _augment(adj, mate, v, alive)
            if inner >= 0:
                return inner
    return -1


def _augment(adj: tuple[int, ...], mate: list[int], root: int, alive: int) -> int:
    """Edmonds' search for an augmenting path from the exposed vertex root in
    the subgraph induced by the vertex mask alive: -1 once a path is flipped
    into mate (mate[v] is v's partner, or -1), else the mask of its inner
    vertices T.  Outer vertices then have neighbours only in T and their own
    blossom, so the |T| + 1 blossoms are odd components of alive minus T."""
    n = len(adj)
    base = list(range(n))
    # parent[v]: v's predecessor on an alternating path from root, set at
    # inner vertices and, inside a blossom, at outer ones too
    parent = [-1] * n
    outer = 1 << root
    inner = 0
    queue = [root]

    def meet(a: int, b: int) -> int:
        # the base of the blossom that the edge ab closes: the first base
        # on b's path to the root that also lies on a's
        path = 0
        while True:
            a = base[a]
            path |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not path >> base[b] & 1:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, top: int, child: int, blossom: int) -> int:
        # walk up from v to the blossom's base top, giving each vertex on
        # the way a parent across the cycle, so that a path can leave the
        # blossom from any of its vertices
        while base[v] != top:
            blossom |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return blossom

    for v in queue:
        m = adj[v] & alive
        while m:
            low = m & -m
            to = low.bit_length() - 1
            m ^= low
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or mate[to] >= 0 and parent[mate[to]] >= 0:
                # outer meets outer: contract the odd cycle into one blossom
                top = meet(v, to)
                blossom = mark(to, top, v, mark(v, top, to, 0))
                for i in range(n):
                    if blossom >> base[i] & 1:
                        base[i] = top
                        if not outer >> i & 1:
                            outer |= 1 << i
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                inner |= low
                if mate[to] < 0:
                    # flip the path from to back to root
                    while to >= 0:
                        p = parent[to]
                        nxt = mate[p]
                        mate[to], mate[p] = p, to
                        to = nxt
                    return -1
                outer |= 1 << mate[to]
                queue.append(mate[to])
    # an inner vertex that a blossom took in became outer
    return inner & ~outer
