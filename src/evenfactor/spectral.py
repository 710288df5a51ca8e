"""Spectral radius of graphs and of the 3x3 equitable quotient matrices of
the split families, with exact integer characteristic cubics.

Power iteration runs on A + I throughout: the shift keeps the Perron vector,
moves every eigenvalue up by one, and removes the +/- oscillation that stalls
convergence on bipartite-like graphs.  The reported residual ||Av - rho*v||_inf
is identical to the shifted residual, so the guarantee is stated for A itself.

A + I is unpacked from the adjacency bitmasks in one numpy call.  A connected
graph iterates on it directly; only a disconnected graph pays for one
submatrix per component.  numpy is imported inside the functions that use it,
so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Graph, mask_vertices

if TYPE_CHECKING:
    import numpy as np

ROOT_TOL = 1e-12


class PowerIterationError(RuntimeError):
    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(f"{message} (estimate {estimate}, residual {residual:.3e})")
        self.estimate = estimate
        self.residual = residual


class RootFindingError(ArithmeticError):
    pass


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    iterations: int
    residual: float


def _bit_matrix(g: Graph, diagonal: int) -> np.ndarray:
    """The 0/1 float matrix whose row v holds the bits of adj[v] | diagonal << v:
    A for diagonal 0, A + I for diagonal 1.  The rows' little-endian bytes are
    joined and unpacked in one call."""
    import numpy as np

    width = (g.n + 7) // 8
    rows = b"".join(
        (m | diagonal << v).to_bytes(width, "little") for v, m in enumerate(g.adj)
    )
    packed = np.frombuffer(rows, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(packed, axis=1, count=g.n, bitorder="little").astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _bit_matrix(g, 0)


def _power_iterate(shifted: np.ndarray, tol: float, max_iter: int) -> tuple[float, int, float]:
    """Power iteration on a connected block of A + I; returns the estimate of
    rho(A), the iterations used and the final residual."""
    import numpy as np

    k = shifted.shape[0]
    if k == 1:
        return 0.0, 0, 0.0
    v = np.full(k, 1.0 / np.sqrt(k))
    best = (0.0, np.inf)
    for it in range(1, max_iter + 1):
        w = shifted @ v
        lam = float(v @ w)
        residual = float(np.abs(w - lam * v).max())
        if residual <= tol:
            return lam - 1.0, it, residual
        if residual < best[1]:
            best = (lam - 1.0, residual)
        # exactly what np.linalg.norm computes for a 1-D float vector
        v = w / math.sqrt(w.dot(w))
    raise PowerIterationError(
        f"no convergence within {max_iter} iterations", best[0], best[1]
    )


def spectral_radius(g: Graph, tol: float = 1e-10, max_iter: int = 10**6) -> SpectralResult:
    """Largest adjacency eigenvalue; the maximum over components when
    disconnected.  Deterministic: the start vector is all-ones.  Needs
    tol >= 0 (NaN is rejected) and max_iter >= 1."""
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if not tol >= 0:
        raise ValueError(f"tolerance must be at least 0, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    import numpy as np

    shifted = _bit_matrix(g, 1)
    blocks = [shifted]
    comps = g.components()
    if len(comps) > 1:
        # a connected graph iterates on A + I itself, with no submatrix copy
        blocks = [shifted[np.ix_(idx, idx)] for idx in map(mask_vertices, comps)]
    rho = 0.0
    iterations = 0
    residual = 0.0
    for block in blocks:
        r, it, res = _power_iterate(block, tol, max_iter)
        iterations += it
        residual = max(residual, res)
        rho = max(rho, r)
    return SpectralResult(rho=rho, iterations=iterations, residual=residual)


# --- quotient matrices of the split-family equitable partitions ---------------


@dataclass(frozen=True)
class QuotientMatrix3:
    """3x3 integer quotient matrix over blocks (join core, big clique, small
    cliques); entries are the constant block row sums of the adjacency."""

    rows: tuple[tuple[int, int, int], ...]
    block_sizes: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("quotient matrix must be 3x3")
        if any(e < 0 for r in self.rows for e in r):
            raise ValueError("quotient entries must be non-negative")
        if any(b < 1 for b in self.block_sizes):
            raise ValueError("all partition blocks must be non-empty")


def quotient_merged_core(n: int, s: int) -> QuotientMatrix3:
    """Quotient of K_s v (K_{n-2s+1} u (s-1)K_1) over its three blocks; at
    s = delta, the quotient of the threshold-attaining graph."""
    if s < 2 or n - 2 * s + 1 < 1:
        raise ValueError(f"blocks empty for n={n}, s={s}")
    return QuotientMatrix3(
        rows=(
            (s - 1, n - 2 * s + 1, s - 1),
            (s, n - 2 * s, 0),
            (s, 0, 0),
        ),
        block_sizes=(s, n - 2 * s + 1, s - 1),
    )


def quotient_small_cliques(n: int, s: int, delta: int) -> QuotientMatrix3:
    """Quotient of K_s v (K_{n-s-q(s-1)} u (s-1)K_q) with q = delta+1-s."""
    q = delta + 1 - s
    big = n - s - q * (s - 1)
    if s < 2 or q < 1 or big < 1:
        raise ValueError(f"blocks empty for n={n}, s={s}, delta={delta}")
    return QuotientMatrix3(
        rows=(
            (s - 1, big, (s - 1) * q),
            (s, big - 1, 0),
            (s, 0, q - 1),
        ),
        block_sizes=(s, big, (s - 1) * q),
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


def char_poly(m: QuotientMatrix3) -> CubicPoly:
    """det(xI - M) expanded in exact integer arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    trace = a + e + i
    minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
    det = (
        a * (e * i - f * h)
        - b * (d * i - f * g)
        + c * (d * h - e * g)
    )
    return CubicPoly(c2=-trace, c1=minors, c0=-det)


def largest_real_root(p: CubicPoly, lower_bound: float) -> float:
    """Largest real root of a monic cubic, to absolute tolerance `ROOT_TOL`.

    Newton from a point above every root (where p, p', p'' are all positive)
    descends monotonically onto the largest root; a short bisection polish
    pins it down.  Fails if the root found lies below `lower_bound`.
    """
    start = 1.0 + max(abs(p.c2), abs(p.c1), abs(p.c0))
    x = max(float(lower_bound), start) + 1.0
    for _ in range(200):
        fx = p(x)
        dfx = p.deriv(x)
        if dfx <= 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < ROOT_TOL / 4:
            break
    # bracket around the Newton estimate and bisect; Newton-from-above leaves
    # p(x) >= 0 up to roundoff
    hi = x + max(ROOT_TOL, 64 * abs(x) * 2.2e-16)
    lo = x - max(ROOT_TOL, 64 * abs(x) * 2.2e-16)
    widen = max(ROOT_TOL, abs(x) * 1e-9)
    tries = 0
    while p(lo) > 0 and tries < 40:
        lo -= widen
        widen = min(2 * widen, 1e-3 * max(1.0, abs(x)))
        tries += 1
    if p(lo) > 0:
        # p never dips below zero nearby: a (near-)double largest root; the
        # Newton estimate is the best available
        if abs(p(x)) <= 1e-6 * max(1.0, abs(x)) ** 3:
            root = x
            if root < lower_bound - 1e-9:
                raise RootFindingError(
                    f"largest real root {root} lies below the required bound {lower_bound}"
                )
            return root
        raise RootFindingError("could not bracket a real root from above")
    for _ in range(200):
        if hi - lo <= ROOT_TOL / 2:
            break
        mid = (lo + hi) / 2
        if p(mid) > 0:
            hi = mid
        else:
            lo = mid
    root = (lo + hi) / 2
    if root < lower_bound - 1e-9:
        raise RootFindingError(
            f"largest real root {root} lies below the required bound {lower_bound}"
        )
    return root
