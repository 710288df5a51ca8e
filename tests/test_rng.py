import hashlib
import tracemalloc

import pytest

from evenfactor import rng as rng_module
from evenfactor.graphs import Graph
from evenfactor.rng import (
    SplitMix64,
    complete_minus_random_edges,
    random_connected_graph,
    random_graph_with_edges,
)

# published reference stream for seed 0; pins cross-platform determinism
SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == SEED0_REFERENCE


def test_randrange_bounds_and_determinism():
    a, b = SplitMix64(99), SplitMix64(99)
    va = [a.randrange(13) for _ in range(200)]
    vb = [b.randrange(13) for _ in range(200)]
    assert va == vb
    assert all(0 <= x < 13 for x in va)
    assert set(va) == set(range(13))
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_randrange_past_2_64_is_refused():
    # a bound of 2^64 takes every draw as it is; past it no draw would pass
    # the rejection test, so the bound is refused instead of looping
    rng, ref = SplitMix64(3), SplitMix64(3)
    assert [rng.randrange(2**64) for _ in range(4)] == [ref.next_u64() for _ in range(4)]
    for n in (2**64 + 1, 3 * 2**64, 10**40):
        with pytest.raises(ValueError, match="bound from 1 to 2\\^64"):
            rng.randrange(n)


def test_sample_distinct():
    rng = SplitMix64(5)
    for _ in range(50):
        k = rng.randrange(11)
        got = rng.sample(k, 10)
        assert len(got) == len(set(got)) == k
        assert all(0 <= x < 10 for x in got)
    with pytest.raises(ValueError):
        SplitMix64(0).sample(11, 10)


def test_random_graph_with_edges():
    rng = SplitMix64(8)
    for _ in range(30):
        n = 1 + rng.randrange(12)
        m = rng.randrange(n * (n - 1) // 2 + 1)
        g = random_graph_with_edges(n, m, rng)
        assert isinstance(g, Graph)
        assert g.n == n and g.edge_count == m
    with pytest.raises(ValueError, match="m=7 out of range for n=4"):
        random_graph_with_edges(4, 7, SplitMix64(0))


def test_random_connected_graph(monkeypatch):
    rng = SplitMix64(21)
    for _ in range(20):
        g = random_connected_graph(7, 8, rng)
        assert g.is_connected() and g.edge_count == 8
    with pytest.raises(ValueError, match="m=3 cannot connect 5 vertices"):
        random_connected_graph(5, 3, SplitMix64(0))
    # a connected draw is possible but not met within the allowed tries
    monkeypatch.setattr(rng_module, "CONNECTED_MAX_TRIES", 1)
    with pytest.raises(RuntimeError, match=r"^no connected draw in 1 tries \(n=10, m=9\)$"):
        random_connected_graph(10, 9, SplitMix64(0))


def test_complete_minus_random_edges():
    rng = SplitMix64(3)
    g = complete_minus_random_edges(8, 5, rng)
    assert g.edge_count == 28 - 5


def sampler_grid():
    """(name, n, k) for both samplers: n from 0 to 64, k at 0, 1, C(n, 2) - 1,
    C(n, 2) and three seeded values in between."""
    pick = SplitMix64(64)
    grid = []
    for n in range(65):
        total = n * (n - 1) // 2
        ks = {0, 1, total - 1, total} | {pick.randrange(total + 1) for _ in range(3)}
        for k in sorted(k for k in ks if 0 <= k <= total):
            grid += [("minus", n, k), ("with", n, k)]
    return grid


def test_samplers_are_pinned():
    # every mask of every draw, and the generator state after it, so the
    # number of draws each call makes is pinned along with the graphs
    samplers = {"minus": complete_minus_random_edges, "with": random_graph_with_edges}
    rng = SplitMix64(2026)
    lines = []
    for name, n, k in sampler_grid():
        g = samplers[name](n, k, rng)
        assert g.n == n
        lines.append(f"{name} {n} {k} {' '.join(map(hex, g.adj))} {rng._state:x}\n")
    assert len(lines) == 846
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "1a02edd5aeef3bf2e7a72c67459ef6e1e19d73fb01eabbd3c23e378b6e43b0f7"
    )


@pytest.mark.parametrize("sampler", [complete_minus_random_edges, random_graph_with_edges])
def test_one_draw_allocates_no_pair_list(sampler):
    # the drawn indices define the graph: a draw at n = 500 allocates the
    # masks and the sample, not K_500's 124,750 pairs (about 12 MB)
    tracemalloc.start()
    try:
        g = sampler(500, 10, SplitMix64(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 500
    assert peak < 1_000_000
