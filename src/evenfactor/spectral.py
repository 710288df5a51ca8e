"""Spectral radius of graphs and of the 3x3 equitable quotient matrix of the
split family K_s v (K_{n-s-q(s-1)} u (s-1)K_q), with its exact integer
characteristic cubic.

rho(G) is the top eigenvalue of the adjacency matrix A from one LAPACK
symmetric eigensolve (`numpy.linalg.eigh`) of the whole matrix; for a
disconnected graph that is already the largest radius of its components.
The residual ||Av - rho*v||_inf is that of the returned unit eigenvector v.

`spectral_radii` stacks the graphs of one order, unpacked from the adjacency
bitmasks, into (B, n, n) arrays and solves each stack in one `eigh` call,
which solves each matrix as it would alone, so the results are bit for bit
those of `spectral_radius`.  numpy is imported inside the functions that use
it, so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

# the most bytes of float64 matrices one stack holds, so that the matrices
# in memory at once stay bounded however many graphs a campaign passes (the
# merge-lemma sweep's order-14 graphs alone would take 510 KiB)
STACK_BYTES = 1 << 17


class EigensolverError(ArithmeticError):
    pass


class RootFindingError(ArithmeticError):
    pass


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    iterations: int  # always 0; `evenfactor spectral` still prints it
    residual: float


def _packed(g: Graph) -> bytes:
    """The low n bits of each adjacency row as little-endian bytes."""
    width = (g.n + 7) // 8
    return b"".join(m.to_bytes(width, "little") for m in g.adj)


def _matrices(packed: bytes, count: int, n: int) -> np.ndarray:
    """The (count, n, n) 0/1 float stack of the packed rows of `count` graphs
    of order n, unpacked in one numpy call."""
    import numpy as np

    bits = np.frombuffer(packed, dtype=np.uint8).reshape(count * n, (n + 7) // 8)
    rows = np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(float)
    return rows.reshape(count, n, n)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _matrices(_packed(g), 1, g.n)[0]


def _solve_stack(stack: np.ndarray) -> list[SpectralResult]:
    """The top eigenpair of every matrix of a (B, n, n) stack, from one
    `eigh` call; a LAPACK failure is an EigensolverError."""
    import numpy as np

    try:
        values, vectors = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        order = stack.shape[1]
        raise EigensolverError(f"eigensolver failed on order {order}: {exc}") from exc
    v = vectors[:, :, -1:]
    residual = np.abs(stack @ v - values[:, -1:, None] * v).max(axis=(1, 2))
    return [
        SpectralResult(rho=rho, iterations=0, residual=res)
        for rho, res in zip(values[:, -1].tolist(), residual.tolist())
    ]


def spectral_radii(graphs: Iterable[Graph]) -> list[SpectralResult]:
    """`[spectral_radius(g) for g in graphs]`, bit for bit.  A 0-vertex graph
    anywhere in the input is a ValueError, raised as it is read, before any
    solve.  The graphs are read once and not kept: each graph's packed rows
    are appended to its order's list as they arrive, and the graphs of one
    order are then solved in stacks of at most STACK_BYTES."""
    packed_by_order: dict[int, list[bytes]] = {}
    # per graph, (order, index in that order's list)
    slots = []
    for g in graphs:
        if g.n < 1:
            raise ValueError("spectral radius needs at least one vertex")
        packed = packed_by_order.setdefault(g.n, [])
        slots.append((g.n, len(packed)))
        packed.append(_packed(g))

    solved: dict[int, list[SpectralResult]] = {}
    for n, packed in packed_by_order.items():
        per_stack = max(1, STACK_BYTES // (8 * n * n))
        found = solved[n] = []
        for first in range(0, len(packed), per_stack):
            chunk = packed[first : first + per_stack]
            found += _solve_stack(_matrices(b"".join(chunk), len(chunk), n))
    return [solved[n][i] for n, i in slots]


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue; the maximum over components when
    disconnected."""
    return spectral_radii([g])[0]


# --- quotient matrices of the split-family equitable partitions ---------------


def split_quotient(n: int, s: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """Rows of the 3x3 integer quotient of K_s v (K_{n-s-q(s-1)} u (s-1)K_q)
    over its blocks (join core, big clique, small cliques): entry (i, j) is
    the constant number of neighbours a block-i vertex has in block j.  At
    q = 1 it is the merged-core family, and at s = delta, q = 1 the
    threshold-attaining graph."""
    big = n - s - q * (s - 1)
    if s < 2 or q < 1 or big < 1:
        raise ValueError(f"blocks empty for n={n}, s={s}, q={q}")
    return (
        (s - 1, big, (s - 1) * q),
        (s, big - 1, 0),
        (s, 0, q - 1),
    )


@dataclass(frozen=True)
class CubicPoly:
    """Monic x^3 + c2 x^2 + c1 x + c0 with exact integer coefficients."""

    c2: int
    c1: int
    c0: int

    def __call__(self, x):
        return ((x + self.c2) * x + self.c1) * x + self.c0

    def deriv(self, x):
        return (3 * x + 2 * self.c2) * x + self.c1

    def coefficients(self) -> tuple[int, int, int, int]:
        return (1, self.c2, self.c1, self.c0)


def char_poly(rows: tuple[tuple[int, int, int], ...]) -> CubicPoly:
    """det(xI - M) of the 3x3 matrix M with these rows, expanded in exact
    integer arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    trace = a + e + i
    minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
    det = (
        a * (e * i - f * h)
        - b * (d * i - f * g)
        + c * (d * h - e * g)
    )
    return CubicPoly(c2=-trace, c1=minors, c0=-det)


def largest_real_root(p: CubicPoly, lower_bound: float) -> float:
    """Largest real root of a monic cubic, within about one ulp.

    Newton from a point above every root (where p, p', p'' are all positive)
    descends monotonically onto the largest root, which must be simple, as
    it is for every irreducible quotient matrix.  It stops when p' > 0
    fails, when a step no longer lowers x (roundoff in p has reached the
    root) or after 2,000 steps, enough even from a Cauchy bound near 10^60.
    A non-finite p (coefficients past the float range) raises, as does a
    root below `lower_bound` by more than 64 * |x| * 2.2e-16; a root below
    the bound by at most that is roundoff in p, and the bound is returned.
    """
    bound = float(lower_bound)
    start = 1.0 + max(abs(p.c2), abs(p.c1), abs(p.c0))
    x = max(bound, start) + 1.0
    for _ in range(2000):
        fx = p(x)
        if not math.isfinite(fx):
            raise RootFindingError(f"cubic is not finite at {x}")
        dfx = p.deriv(x)
        if not dfx > 0:
            break
        lower = x - fx / dfx
        if not lower < x:
            break
        x = lower
    if not x >= bound - 64 * abs(x) * 2.2e-16:
        raise RootFindingError(
            f"largest real root {x} lies below the required bound {lower_bound}"
        )
    return max(x, bound)
