"""Spectral radius of graphs and of the 3x3 equitable quotient matrix of the
split family K_s v (K_{n-s-q(s-1)} u (s-1)K_q), with its exact integer
characteristic cubic.

Power iteration runs on A + I throughout: the shift keeps the Perron vector,
moves every eigenvalue up by one, and removes the +/- oscillation that stalls
convergence on bipartite-like graphs.  The reported residual ||Av - rho*v||_inf
is identical to the shifted residual, so the guarantee is stated for A itself.

`spectral_radii` iterates the connected blocks of many graphs at once: the
blocks of one order are unpacked from the adjacency bitmasks into (B, k, k)
stacks of A + I and iterated together, each block with the same
floating-point operations it would get alone, so the results are bit for bit
those of `spectral_radius`.  A connected graph's rows are its masks; only a
component of a disconnected graph is relabelled.  numpy is imported inside
the functions that use it, so importing this module (and the CLI) does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .graphs import Graph, mask_vertices

if TYPE_CHECKING:
    import numpy as np

ROOT_TOL = 1e-12
# power iteration stops at residual POWER_TOL, and fails past POWER_MAX_ITER
POWER_TOL = 1e-10
POWER_MAX_ITER = 10**6

# the most bytes of float64 matrices one stack of blocks holds, so that the
# matrices in memory at once stay bounded however many graphs a campaign
# passes (the merge-lemma sweep's order-14 blocks alone would take 510 KiB)
STACK_BYTES = 1 << 17


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


def _pack_rows(rows: Iterable[int], k: int) -> bytes:
    """The low k bits of each row as little-endian bytes, ready for
    `_unpack_rows`."""
    width = (k + 7) // 8
    return b"".join(m.to_bytes(width, "little") for m in rows)


def _unpack_rows(packed: bytes, count: int, k: int) -> np.ndarray:
    """The (count, k) 0/1 float matrix of `count` packed rows, unpacked in
    one numpy call."""
    import numpy as np

    bits = np.frombuffer(packed, dtype=np.uint8).reshape(count, (k + 7) // 8)
    return np.unpackbits(bits, axis=1, count=k, bitorder="little").astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _unpack_rows(_pack_rows(g.adj, g.n), g.n, g.n)


def _shifted_rows(g: Graph, comp: int) -> Iterable[int]:
    """Rows of A + I restricted to the component `comp`, relabelled 0..k-1.
    A connected graph's rows are its masks plus the diagonal bit; only a
    component of a disconnected graph pays for relabelling."""
    if comp == (1 << g.n) - 1:
        return (m | 1 << v for v, m in enumerate(g.adj))
    verts = mask_vertices(comp)
    return [
        sum(1 << j for j, u in enumerate(verts) if (g.adj[v] | 1 << v) >> u & 1)
        for v in verts
    ]


def _power_iterate(shifted: np.ndarray, tol: float, max_iter: int) -> tuple[float, int, float]:
    """Power iteration on one connected block of A + I, of order at least 2.
    Returns the estimate of rho(A), the iterations used and the residual of
    the last iteration: the converged one, or iteration max_iter, whose
    residual exceeds tol."""
    import numpy as np

    k = shifted.shape[0]
    v = np.full(k, 1.0 / np.sqrt(k))
    for it in range(1, max_iter + 1):
        w = shifted @ v
        lam = float(v @ w)
        residual = float(np.abs(w - lam * v).max())
        if residual <= tol:
            break
        # exactly what np.linalg.norm computes for a 1-D float vector
        v = w / math.sqrt(w.dot(w))
    return lam - 1.0, it, residual


def _power_iterate_stack(
    stack: np.ndarray, tol: float, max_iter: int
) -> list[tuple[float, int, float]]:
    """`_power_iterate` on every block of a C-contiguous (B, k, k) stack at
    once, with the same floating-point operations per block: `stack @ v` is
    each block's gemv and `v^T @ w` each block's dot.  A converged block
    rides along masked until the last block converges: it keeps iterating,
    but its result is written once, when it converges or at max_iter."""
    import numpy as np

    b, k, _ = stack.shape
    rho = np.empty(b)
    residual = np.empty(b)
    iterations = np.empty(b, dtype=int)
    live = np.ones(b, dtype=bool)
    v = np.full((b, k, 1), 1.0 / np.sqrt(k))
    for it in range(1, max_iter + 1):
        w = stack @ v
        lam = v.transpose(0, 2, 1) @ w
        res = np.abs(w - lam * v).max(axis=(1, 2))
        done = live & ((res <= tol) | (it == max_iter))
        if done.any():
            rho[done] = lam[done, 0, 0] - 1.0
            residual[done] = res[done]
            iterations[done] = it
            live &= ~done
            if not live.any():
                break
        v = w / np.sqrt(w.transpose(0, 2, 1) @ w)
    return list(zip(rho.tolist(), iterations.tolist(), residual.tolist()))


def spectral_radii(graphs: Iterable[Graph]) -> list[SpectralResult]:
    """`[spectral_radius(g) for g in graphs]`, bit for bit, with the
    connected blocks of all graphs iterated together.  A 0-vertex graph
    anywhere in the input is a ValueError, raised as it is read, before any
    iteration; a block that does not converge raises the PowerIterationError
    of the first failing block of the first failing graph.  The graphs are
    read once and not kept: each block's rows of A + I are packed and
    appended to its order's list as they arrive, and the blocks of one order
    are then unpacked into (B, k, k) stacks of at most STACK_BYTES.  A stack
    of a single block runs the 2-D kernel, which is cheaper at B = 1.  A
    single vertex has rho 0 and needs no iteration, so it joins no stack."""
    tol, max_iter = POWER_TOL, POWER_MAX_ITER
    blocks: dict[int, list[bytes]] = {}
    # per graph, (order, index in that order's list) of each block
    layouts: list[list[tuple[int, int]]] = []
    for g in graphs:
        if g.n < 1:
            raise ValueError("spectral radius needs at least one vertex")
        layout = []
        for comp in g.components():
            k = comp.bit_count()
            if k > 1:
                rows = blocks.setdefault(k, [])
                layout.append((k, len(rows)))
                rows.append(_pack_rows(_shifted_rows(g, comp), k))
        layouts.append(layout)

    outcomes: dict[int, list[tuple[float, int, float]]] = {}
    for k, rows in blocks.items():
        per_stack = max(1, STACK_BYTES // (8 * k * k))
        found = outcomes[k] = []
        for first in range(0, len(rows), per_stack):
            chunk = rows[first : first + per_stack]
            stack = _unpack_rows(b"".join(chunk), len(chunk) * k, k)
            if len(chunk) == 1:
                found.append(_power_iterate(stack, tol, max_iter))
            else:
                found += _power_iterate_stack(stack.reshape(-1, k, k), tol, max_iter)

    results = []
    for layout in layouts:
        rho = 0.0
        iterations = 0
        residual = 0.0
        for k, pos in layout:
            r, it, res = outcomes[k][pos]
            if res > tol:
                raise PowerIterationError(
                    f"no convergence within {max_iter} iterations", r, res
                )
            iterations += it
            residual = max(residual, res)
            rho = max(rho, r)
        results.append(SpectralResult(rho=rho, iterations=iterations, residual=residual))
    return results


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue; the maximum over components when
    disconnected.  Deterministic: the start vector is all-ones."""
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
    """Largest real root of a monic cubic, to absolute tolerance `ROOT_TOL`.

    Newton from a point above every root (where p, p', p'' are all positive)
    descends monotonically onto the largest root; a short bisection polish
    on the bracket x +/- half, half = max(ROOT_TOL, 64 * |x| * 2.2e-16),
    pins it down.  Newton stops on a step below max(ROOT_TOL / 4, 4 * |x| *
    2.2e-16), a few ulps at large |x|, so it ends within 2,000 steps even
    from a Cauchy bound near 10^60.  The largest root must be simple, as it
    is for every irreducible quotient matrix; fails if p does not change
    sign just below the Newton estimate, if the root lies below
    `lower_bound` by more than half, or if a value is not finite
    (coefficients past the float range).  A root below the bound by at most
    half is roundoff in p, and the bound is returned.
    """
    bound = float(lower_bound)
    start = 1.0 + max(abs(p.c2), abs(p.c1), abs(p.c0))
    x = max(bound, start) + 1.0
    for _ in range(2000):
        fx = p(x)
        dfx = p.deriv(x)
        # each check is written so that a NaN fails it
        if not dfx > 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < max(ROOT_TOL / 4, 4 * abs(x) * 2.2e-16):
            break
    # bracket around the Newton estimate and bisect; Newton-from-above leaves
    # p(x) >= 0 up to roundoff
    half = max(ROOT_TOL, 64 * abs(x) * 2.2e-16)
    hi = x + half
    lo = x - half
    if not p(lo) <= 0:
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
    if not root >= bound - half:
        raise RootFindingError(
            f"largest real root {root} lies below the required bound {lower_bound}"
        )
    return max(root, bound)
