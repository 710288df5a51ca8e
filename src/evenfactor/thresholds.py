"""Closed-form thresholds, hypothesis tests for the two guarantee routes,
extremal-graph recognition, and the per-graph verdict.

The verdict reports what the size route ("1.1") and the spectral route
("1.2") imply for a graph; it deliberately never consults the even-factor
oracle, so "guaranteed" and "true" stay separate observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf, nextafter

from .graphs import Graph
from .spectral import char_poly, largest_real_root, spectral_radius, split_quotient

GUARANTEED_BY_EDGES = "even_factor_guaranteed_by_1.1"
GUARANTEED_BY_SPECTRAL = "even_factor_guaranteed_by_1.2"
EXTREMAL_EXCEPTION = "extremal_exception"
NO_GUARANTEE = "no_guarantee"

# equality at the spectral threshold only happens for the extremal graph
# itself; the tolerance absorbs the eigensolver's rounding (about 1e-14 at
# the campaigns' orders) and the root finder's, within one ulp of the root
RHO_EQUALITY_TOL = 1e-8


def edge_threshold(n: int, delta: int) -> int:
    """Edge count of the extremal graph: C(n-delta+1, 2) + delta*(delta-1)."""
    if delta < 1 or n < 2 * delta:
        raise ValueError(f"threshold undefined for n={n}, delta={delta}")
    return comb(n - delta + 1, 2) + delta * (delta - 1)


def spectral_threshold(n: int, delta: int) -> float:
    """Spectral radius of the extremal graph, as the largest root of the
    quotient characteristic cubic; the float is >= n - delta (the exact root
    exceeds it, by under one ulp at large n and small delta), because the
    root finder's bound is the least float >= n - delta."""
    poly = char_poly(split_quotient(n, delta, 1))
    bound = float(n - delta)
    if bound < n - delta:
        bound = nextafter(bound, inf)
    return largest_real_root(poly, bound)


def meets_spectral(rho: float, rho_thr: float) -> bool:
    """rho >= rho_thr up to RHO_EQUALITY_TOL: the one comparison of two
    spectral radii, against the spectral threshold or (negated, as the
    merge lemma's strict test) against a merged family's radius."""
    return rho >= rho_thr - RHO_EQUALITY_TOL


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def edge_route_floor(delta: int) -> int:
    """Least n with n >= 6*delta-4 and 6n >= delta^2+7*delta+4 (route 1.1)."""
    return max(6 * delta - 4, _ceil_div(delta**2 + 7 * delta + 4, 6))


def spectral_route_floor(delta: int) -> int:
    """Least n with n >= 5*delta-3 and 3n >= delta^2+3*delta (route 1.2)."""
    return max(5 * delta - 3, _ceil_div(delta**2 + 3 * delta, 3))


def applicability(n: int, delta: int, theorem: str) -> bool:
    """Hypothesis check for a guarantee route: n even and at least the
    route's floor.  `theorem` is "1.1" (size) or "1.2" (spectral)."""
    if delta < 2:
        raise ValueError(f"routes require minimum degree at least 2, got {delta}")
    if theorem == "1.1":
        return n % 2 == 0 and n >= edge_route_floor(delta)
    if theorem == "1.2":
        return n % 2 == 0 and n >= spectral_route_floor(delta)
    raise ValueError(f"unknown theorem {theorem!r}, expected '1.1' or '1.2'")


def recognize_extremal(g: Graph) -> tuple[int, int] | None:
    """(n, delta) if g is isomorphic to K_delta v (K_{n-2*delta+1} u (delta-1)K_1)
    with delta >= 2 and n > 2*delta, else None.  n = 2*delta is excluded on
    purpose: both route floors lie above it.

    That extremal graph is a threshold graph, and a threshold graph is the
    only graph with its degree sequence (Chvatal-Hammer, 1977), so sorted
    degrees decide exactly: delta-1 vertices of degree delta, n-2*delta+1 of
    degree n-delta and delta of degree n-1.
    """
    n, delta = g.n, g.min_degree()
    if delta is None or delta < 2 or n <= 2 * delta:
        return None
    want = [delta] * (delta - 1) + [n - delta] * (n - 2 * delta + 1) + [n - 1] * delta
    return (n, delta) if sorted(g.degrees()) == want else None


@dataclass(frozen=True)
class Verdict:
    n: int
    delta_G: int | None
    thm11_applicable: bool
    thm12_applicable: bool
    edge_threshold: int | None
    spectral_threshold: float | None
    e_G: int
    rho_G: float | None
    meets_edge: bool | None
    meets_spectral: bool | None
    is_extremal: bool
    guarantee: str
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def verdict(g: Graph, which: str = "both", delta: int | None = None) -> Verdict:
    """What the requested routes guarantee for g.

    `which` is "edges", "spectral" or "both"; only the requested routes are
    evaluated (the spectral radius of g is not computed for "edges").
    `delta` overrides the minimum degree for what-if queries.
    """
    if which not in ("edges", "spectral", "both"):
        raise ValueError(f"which must be edges|spectral|both, got {which!r}")
    n = g.n
    e_g = g.edge_count
    delta_used = g.min_degree() if delta is None else delta

    thm11 = thm12 = is_extremal = False
    e_thr = rho_thr = rho_g = meets_edge = meets_rho = reason = None

    if delta_used is None:
        reason = "empty graph"
    elif delta_used < 2:
        reason = f"minimum degree {delta_used} below 2"
    else:
        thm11 = applicability(n, delta_used, "1.1")
        thm12 = applicability(n, delta_used, "1.2")
        if n >= 2 * delta_used:
            e_thr = edge_threshold(n, delta_used)
            rho_thr = spectral_threshold(n, delta_used)
            if which != "spectral":
                meets_edge = e_g >= e_thr
            if which != "edges":
                rho_g = spectral_radius(g).rho
                meets_rho = meets_spectral(rho_g, rho_thr)
        is_extremal = recognize_extremal(g) == (n, delta_used)

    # a route not requested leaves its meets_* at None, so it cannot fire
    by_edges = thm11 and meets_edge
    by_rho = thm12 and meets_rho
    if not g.is_connected():
        reason = "graph is disconnected"
        guarantee = NO_GUARANTEE
    elif is_extremal and (by_edges or by_rho):
        guarantee = EXTREMAL_EXCEPTION
    elif by_edges:
        guarantee = GUARANTEED_BY_EDGES
    elif by_rho:
        guarantee = GUARANTEED_BY_SPECTRAL
    else:
        guarantee = NO_GUARANTEE

    return Verdict(
        n=n,
        delta_G=delta_used,
        thm11_applicable=thm11,
        thm12_applicable=thm12,
        edge_threshold=e_thr,
        spectral_threshold=rho_thr,
        e_G=e_g,
        rho_G=rho_g,
        meets_edge=meets_edge,
        meets_spectral=meets_rho,
        is_extremal=is_extremal,
        guarantee=guarantee,
        reason=reason,
    )
