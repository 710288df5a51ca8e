"""Seedable, platform-independent randomness for sweeps and tests.

SplitMix64 (Steele, Lea, Flood 2014) with 64 bits of state: the same seed
yields the same stream on every platform and Python version, which the
sweep-determinism contract requires.  Rejection sampling keeps randrange
unbiased.
"""

from __future__ import annotations

from .graphs import Graph

_MASK64 = (1 << 64) - 1

# draws random_connected_graph makes before it gives up
CONNECTED_MAX_TRIES = 10_000


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        # past 2^64 no rejection limit exists: it would be 0 and reject
        # every draw
        if not 0 < n <= _MASK64 + 1:
            raise ValueError(f"randrange needs a bound from 1 to 2^64, got {n}")
        limit = _MASK64 + 1 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def sample(self, k: int, n: int) -> list[int]:
        """k distinct values from range(n), order randomized."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from range({n})")
        swapped: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        return out


def _pair_masks(n: int, indices: list[int]) -> list[int]:
    """Adjacency masks of the pairs of K_n at `indices`, in the lexicographic
    pair order (0,1), (0,2), ..., (0,n-1), (1,2), ...: the sorted indices are
    walked row by row, so no list of K_n's pairs is built."""
    masks = [0] * n
    # row u's pairs (u, u+1), ..., (u, n-1) end just before index row_end
    u, row_end = 0, n - 1
    for i in sorted(indices):
        while i >= row_end:
            u += 1
            row_end += n - 1 - u
        v = n - row_end + i
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def random_graph_with_edges(n: int, m: int, rng: SplitMix64) -> Graph:
    """Uniform simple graph on n labeled vertices with exactly m edges."""
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"m={m} out of range for n={n}")
    return Graph._trusted(n, tuple(_pair_masks(n, rng.sample(m, total))))


def random_connected_graph(n: int, m: int, rng: SplitMix64) -> Graph:
    if m < n - 1:
        raise ValueError(f"m={m} cannot connect {n} vertices")
    for _ in range(CONNECTED_MAX_TRIES):
        g = random_graph_with_edges(n, m, rng)
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected draw in {CONNECTED_MAX_TRIES} tries (n={n}, m={m})")


def complete_minus_random_edges(n: int, k: int, rng: SplitMix64) -> Graph:
    """K_n with k uniformly chosen edges removed.  The edges are drawn before
    anything is allocated, so a K_n with more than 2^64 edges is refused at
    once."""
    missing = _pair_masks(n, rng.sample(k, n * (n - 1) // 2))
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full ^ (1 << v) ^ missing[v] for v in range(n)))
