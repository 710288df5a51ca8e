"""Simple undirected graphs on dense vertex labels 0..n-1.

Adjacency is stored as one int bitmask per vertex, which makes induced
subgraphs, component scans and subset enumeration cheap for the desk-scale
instances this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no loops, no multi-edges, vertices 0..n-1.

    Validation happens once, at the trust boundary: a direct `Graph(n, adj)`
    checks the vertex count, the adjacency length, the range of every mask,
    loops and symmetry.  The builders in this package (`from_edges`,
    `with_edge`, `complete`, `disjoint_union`, `join`, `build_family`,
    `parse_graph6`, the samplers in `rng` and everything built on them)
    check their own arguments and then go through `_trusted`, which skips
    that O(m) scan because their adjacency is a simple graph by
    construction.
    """

    n: int
    adj: tuple[int, ...]

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Wrap adjacency that is valid by construction, without validation."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} adjacent to out-of-range vertex")
            if mask >> v & 1:
                raise ValueError(f"vertex {v} has a loop")
        for v, mask in enumerate(self.adj):
            m = mask
            while m:
                b = m & -m
                u = b.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")
                m ^= b

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, tuple(adj))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return list(map(int.bit_count, self.adj))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def min_degree(self) -> int | None:
        if self.n == 0:
            return None
        return min(map(int.bit_count, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                b = m & -m
                out.append((v, b.bit_length() - 1))
                m ^= b
        return out

    def non_edges(self) -> list[Edge]:
        out = []
        for v in range(self.n):
            for u in range(v + 1, self.n):
                if not self.adj[v] >> u & 1:
                    out.append((v, u))
        return out

    def with_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge {u}-{v} out of range for n={self.n}")
        if u == v or self.has_edge(u, v):
            raise ValueError(f"{u}-{v} is not a new edge")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._trusted(self.n, tuple(adj))

    def components(self, pool: int | None = None) -> list[int]:
        """Vertex masks of the connected components inside `pool`."""
        if pool is None:
            pool = (1 << self.n) - 1
        adj = self.adj
        out = []
        while pool:
            seed = pool & -pool
            comp = seed
            frontier = seed
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    b = m & -m
                    nxt |= adj[b.bit_length() - 1]
                    m ^= b
                frontier = nxt & pool & ~comp
                comp |= frontier
            pool &= ~comp
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        # the empty graph counts as connected by convention
        return len(self.components()) <= 1


def vertex_mask(vertices: int | Iterable[int], n: int) -> int:
    """Normalize a vertex subset (bitmask or iterable) to a bitmask."""
    if isinstance(vertices, int):
        mask = vertices
    else:
        mask = 0
        for v in vertices:
            mask |= 1 << v
    if mask & ~((1 << n) - 1) or mask < 0:
        raise ValueError(f"vertex set {bin(mask)} not within [0, {n})")
    return mask


def mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


# --- constructors -----------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be non-negative")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    n = sum(g.n for g in parts)
    adj: list[int] = []
    offset = 0
    for g in parts:
        adj.extend(m << offset for m in g.adj)
        offset += g.n
    return Graph._trusted(n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """All edges of g and h plus every edge between the two vertex sets."""
    n = g.n + h.n
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << n) - 1) ^ g_mask
    adj = [m | h_mask for m in g.adj]
    adj.extend((m << g.n) | g_mask for m in h.adj)
    return Graph._trusted(n, tuple(adj))


@dataclass(frozen=True)
class FamilySpec:
    """A split family K_s joined to a disjoint union of cliques.

    `parts` are the clique orders, sorted non-increasing.  The realized graph
    labels the join core 0..s-1 first, then the parts in the given order.
    """

    s: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("join core size must be non-negative")
        if any(p < 1 for p in self.parts):
            raise ValueError("all clique parts must be at least 1")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be sorted non-increasing")

    @property
    def n(self) -> int:
        return self.s + sum(self.parts)


def merged_family(n: int, s: int, t: int, p: int) -> FamilySpec:
    """The family K_s v (K_{n-s-p(t-1)} u (t-1)K_p): one big clique plus
    t-1 fillers of order p."""
    big = n - s - p * (t - 1)
    if t < 1 or p < 1 or big < p:
        raise ValueError(f"no valid merged family for n={n}, s={s}, t={t}, p={p}")
    return FamilySpec(s, (big,) + (p,) * (t - 1))


def build_family(spec: FamilySpec) -> Graph:
    """K_s v (K_{n_1} u ... u K_{n_t}), equal to `join(complete(s),
    disjoint_union(complete(p) for p in parts))`, each row's mask written in
    one pass: a core vertex sees every other vertex, a part vertex sees the
    core and the rest of its own part."""
    full = (1 << spec.n) - 1
    core = (1 << spec.s) - 1
    adj = [full ^ (1 << v) for v in range(spec.s)]
    lo = spec.s
    for p in spec.parts:
        block = ((1 << p) - 1) << lo
        adj.extend(core | block ^ (1 << v) for v in range(lo, lo + p))
        lo += p
    return Graph._trusted(spec.n, tuple(adj))


def extremal(n: int, delta: int) -> Graph:
    """The threshold-attaining graph K_delta v (K_{n-2*delta+1} u (delta-1)K_1)."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if n - 2 * delta + 1 < 1:
        raise ValueError(f"n={n} too small for delta={delta}: big clique would be empty")
    return build_family(merged_family(n, delta, delta, 1))


# --- structural queries ------------------------------------------------------


def odd_components_minus(g: Graph, s: int | Iterable[int]) -> int:
    """Number of odd-order components left after deleting the vertex set s."""
    mask = vertex_mask(s, g.n)
    pool = ((1 << g.n) - 1) & ~mask
    return sum(1 for c in g.components(pool) if c.bit_count() & 1)
