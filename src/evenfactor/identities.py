"""Machine checks of the algebraic identities and sign claims behind the
two threshold routes.

Every polynomial identity is certified by exact evaluation at more sample
points than its degree (rational arithmetic, so each grid point is a proof
at that point); sign claims are evaluated in exact rationals at the floors
their hypotheses name.  Closed forms are transcribed once, here, and each
transcription is checked against an independently computed left side
(edge counts from realized graphs, characteristic polynomials from cofactor
expansion), so a transcription typo cannot silently pass.

The grid is evaluated one row (n, delta) at a time, through two per-run
caches that each `run_identity_grid` call makes for itself: every split
family K_s v (K_{n-s-q(s-1)} u (s-1)K_q) the grid names is realized as a
graph, and its quotient cubic built, once per run, and the sign-claim values
that do not depend on n are computed once per (s, delta).  Nothing is cached
between runs.  The spectral threshold theta is computed once per row.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cache
from math import isfinite
from typing import Iterable, NamedTuple

from .graphs import build_family, extremal, merged_family
from .spectral import char_poly, split_quotient
from .thresholds import edge_route_floor, spectral_route_floor, spectral_threshold

FLOAT_RTOL = 1e-9


class IdentityCheck(NamedTuple):
    """One identity or sign claim and its outcome.  A tuple, not a frozen
    dataclass: the grid builds tens of thousands of these, and a frozen
    dataclass's __init__ sets each field through object.__setattr__, which
    made building the records a large share of the grid's time.  Read-only
    like one, with no per-instance __dict__."""

    name: str
    params: dict
    lhs: object
    rhs: object
    relation: str = "eq"
    passed: bool | None = None
    skipped_reason: str | None = None

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return int(v) if v.denominator == 1 else str(v)
            return v

        out = {
            "name": self.name,
            "params": {k: enc(v) for k, v in self.params.items()},
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "relation": self.relation,
            "pass": self.passed,
        }
        if self.skipped_reason is not None:
            out["skipped"] = self.skipped_reason
        return out

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _compare(lhs, rhs, relation: str) -> bool:
    if isinstance(lhs, float) or isinstance(rhs, float):
        if relation == "eq":
            return (
                isfinite(lhs)
                and isfinite(rhs)
                and abs(lhs - rhs) <= FLOAT_RTOL * max(1.0, abs(rhs))
            )
        lhs, rhs = float(lhs), float(rhs)
    if relation == "eq":
        return lhs == rhs
    if relation == "ge":
        return lhs >= rhs
    if relation == "gt":
        return lhs > rhs
    if relation == "lt":
        return lhs < rhs
    raise ValueError(f"unknown relation {relation!r}")


def make_check(name: str, params: dict, lhs, rhs, relation: str = "eq") -> IdentityCheck:
    return IdentityCheck(name, params, lhs, rhs, relation, _compare(lhs, rhs, relation))


def skipped_check(name: str, params: dict, reason: str) -> IdentityCheck:
    return IdentityCheck(name, params, None, None, "eq", None, reason)


# --- transcribed closed forms (single source of truth) ------------------------


def edge_gap_cubic(x, n: int, delta: int):
    """Cubic whose value at s gives 2*(edge surplus)/(delta - s) for the
    small-cliques comparison."""
    return (
        x**3
        - (delta + 5) * x**2
        + (2 * n + delta + 7) * x
        - 4 * n
        + 3 * delta
        - 3
    )


def radius_gap_quadratic(x, n: int, s: int, delta: int):
    """Quadratic equal to (charpoly of merged-core quotient minus charpoly of
    extremal quotient) / (s - delta)."""
    return (
        x**2
        - (s + delta - 2) * x
        + s * n
        + delta * n
        - n
        - 2 * s**2
        - 2 * delta * s
        + 2 * s
        - 2 * delta**2
        + 2 * delta
    )


def theta_gap_quadratic(x, n: int, s: int, delta: int):
    """Quadratic equal to (charpoly of small-cliques quotient minus charpoly
    of extremal quotient) / (delta - s)."""
    return (
        (s - 3) * x**2
        + (n - delta * s + s + 2 * delta - 4) * x
        + s**4
        - (delta + 5) * s**3
        + (n + 2 * delta + 8) * s**2
        - (2 * n + 5) * s
        + (2 - delta) * n
        + 2 * delta**2
        - delta
    )


def floor_quadratic(x, s: int, delta: int):
    """theta_gap_quadratic evaluated at n - delta, viewed as a quadratic in n."""
    return (
        (s - 2) * x**2
        + (s**2 - (3 * delta + 1) * s + 6 * delta - 2) * x
        + s**4
        - (delta + 5) * s**3
        + (2 * delta + 8) * s**2
        + (2 * delta**2 - delta - 5) * s
        - 3 * delta**2
        + 3 * delta
    )


def floor_quadratic_min_closed_form(s: int, delta: int) -> Fraction:
    """floor_quadratic at its claimed minimum point n = delta^2/3 + delta."""
    inner = (
        delta * ((s - 2) * delta**2 - 3 * (s - 2) * delta + 3 * s**2 - 3 * s + 3)
        - 9 * s**3
        + 27 * s**2
        - 18 * s
        + 9
    )
    return Fraction(delta, 9) * inner + s * (s**3 - 5 * s**2 + 8 * s - 5)


def small_cliques_deriv_at_floor_closed_form(n: int, s: int, delta: int) -> int:
    """Derivative of the small-cliques quotient charpoly at x = n - delta."""
    return (
        n**2
        + (-2 * s**2 + 2 * delta * s + 5 * s - 7 * delta + 1) * n
        + 3 * delta * s**2
        - s**2
        - 3 * delta**2 * s
        - 7 * delta * s
        + 4 * s
        + 8 * delta**2
        - 4 * delta
    )


# --- the checks ---------------------------------------------------------------


def _charpoly_gap_checks(
    name: str, params: dict, p, p_star, scale: int, gap_quadratic
) -> list[IdentityCheck]:
    """p - p_star against scale * gap_quadratic at x = 0, 1, 2; three exact
    points certify the quadratic identity."""
    n, s, delta = params["n"], params["s"], params["delta"]
    out = []
    for x in (0, 1, 2):
        lhs = p(x) - p_star(x)
        rhs = scale * gap_quadratic(x, n, s, delta)
        out.append(make_check(name, {**params, "x": x}, lhs, rhs))
    return out


@dataclass(frozen=True, slots=True)
class _SignConstants:
    """The sign-claim values at (s, delta) that do not depend on n."""

    radius_chain_min: Fraction
    floor_min: Fraction
    pivot: Fraction
    deriv_at_pivot: Fraction
    floor_at_nmin: Fraction
    deriv_chain_min: Fraction


def _sign_constants(s: int, delta: int) -> _SignConstants:
    pivot = Fraction(3 * delta - s - 1, 2)
    nmin = Fraction(delta**2, 3) + delta  # floor_quadratic's minimum point
    return _SignConstants(
        radius_chain_min=Fraction(5 * delta - 3, 2),
        floor_min=floor_quadratic_min_closed_form(s, delta),
        pivot=pivot,
        deriv_at_pivot=2 * (s - 2) * pivot + s**2 - (3 * delta + 1) * s + 6 * delta - 2,
        floor_at_nmin=floor_quadratic(nmin, s, delta),
        deriv_chain_min=Fraction(7 * s**2 + 20 * s + 112, 9),
    )


def _family(n: int, s: int, q: int) -> tuple:
    """(edge count, cubic or None) of K_s v (K_{n-s-q(s-1)} u (s-1)K_q)."""
    # at q = 1 the family is the extremal graph for delta = s, whose
    # constructor names an empty big clique
    graph = extremal(n, s) if q == 1 else build_family(merged_family(n, s, s, q))
    cubic = char_poly(split_quotient(n, s, q)) if s >= 2 else None
    return graph.edge_count, cubic


def _sign_claims(
    n: int, s: int, delta: int, p_small, small_surplus, consts: _SignConstants
) -> list[IdentityCheck]:
    """Sign and floor claims used by the two route proofs, each evaluated in
    exact rational arithmetic inside its own hypothesis range (claims outside
    their range are reported as skipped, never evaluated).  `p_small` and
    `small_surplus` are the cell's small-cliques cubic and edge surplus, None
    where that family does not exist; `consts` holds the values at (s, delta)
    that do not depend on n."""
    params = {"n": n, "s": s, "delta": delta}
    out: list[IdentityCheck] = []

    # size route, oversized core: the gap quadratic at its floor x = n - delta
    if s >= delta + 1 and n >= 2 * s:
        at_floor = radius_gap_quadratic(n - delta, n, s, delta)
        out.append(
            make_check(
                "radius_gap_at_floor_value",
                params,
                at_floor,
                n**2 - (2 * delta - 1) * n - 2 * s**2 - (delta - 2) * s,
            )
        )
        if n >= 5 * delta - 3:
            out.append(make_check("radius_gap_at_floor_positive", params, at_floor, 0, "gt"))
    else:
        out.append(skipped_check("radius_gap_at_floor_value", params, "needs s >= delta+1 and n >= 2s"))
    out.append(make_check("radius_gap_chain_min", params, consts.radius_chain_min, 0, "gt"))

    # size route, small cliques: the edge cubic is increasing from 3 and
    # positive there
    if 3 <= s <= delta - 1 and 6 * n >= delta**2 + 7 * delta + 4:
        slope_min = Fraction(6 * n - delta**2 - 7 * delta - 4, 3)
        deriv_at_axis = (
            3 * Fraction(delta + 5, 3) ** 2
            - 2 * (delta + 5) * Fraction(delta + 5, 3)
            + 2 * n
            + delta
            + 7
        )
        out.append(make_check("edge_cubic_slope_min_value", params, deriv_at_axis, slope_min))
        out.append(make_check("edge_cubic_slope_min_nonneg", params, slope_min, 0, "ge"))
        out.append(
            make_check(
                "edge_cubic_monotone_from_3",
                params,
                edge_gap_cubic(s, n, delta),
                edge_gap_cubic(3, n, delta),
                "ge",
            )
        )
    else:
        out.append(
            skipped_check(
                "edge_cubic_monotone_from_3",
                params,
                "needs 3 <= s <= delta-1 and 6n >= delta^2+7delta+4",
            )
        )
    if n >= 6 * delta - 4:
        out.append(
            make_check("edge_cubic_at_3_value", params, edge_gap_cubic(3, n, delta), 2 * n - 3 * delta)
        )
        out.append(
            make_check("edge_cubic_at_3_floor", params, 2 * n - 3 * delta, 9 * delta - 8, "ge")
        )
        out.append(make_check("edge_cubic_at_3_positive", params, 2 * n - 3 * delta, 0, "gt"))
    else:
        out.append(skipped_check("edge_cubic_at_3_positive", params, "needs n >= 6delta-4"))

    # spectral route, small cliques: where the theta gap starts increasing
    if 3 <= s <= delta - 1 and 3 * n >= delta**2 + 3 * delta:
        if s >= 4:
            vertex = -Fraction(n - delta * s + s + 2 * delta - 4, 2 * (s - 3))
            out.append(make_check("theta_gap_vertex_left_of_floor", params, vertex, n - delta, "lt"))
        else:
            # s = 3 zeroes the quadratic term; the gap is affine with the
            # slope below, so increasing is equivalent to slope positive
            out.append(
                make_check(
                    "theta_gap_slope_positive_s3",
                    {**params, "boundary": "s=3"},
                    n - delta * s + s + 2 * delta - 4,
                    0,
                    "gt",
                )
            )
    if 2 <= s <= delta - 1:
        out.append(
            make_check(
                "theta_gap_floor_value",
                params,
                theta_gap_quadratic(n - delta, n, s, delta),
                floor_quadratic(n, s, delta),
            )
        )
    if 3 <= s <= delta - 1:
        out.append(make_check("floor_deriv_zero_at_pivot", params, consts.deriv_at_pivot, 0))
        if 3 * n >= delta**2 + 3 * delta:
            out.append(make_check("floor_pivot_below_n", params, consts.pivot, n, "lt"))
            out.append(
                make_check(
                    "floor_monotone_to_n",
                    params,
                    floor_quadratic(n, s, delta),
                    consts.floor_at_nmin,
                    "ge",
                )
            )
            out.append(
                make_check("floor_min_value", params, consts.floor_at_nmin, consts.floor_min)
            )
            out.append(make_check("floor_min_positive", params, consts.floor_min, 0, "gt"))
    else:
        out.append(
            skipped_check("floor_min_positive", params, "needs 3 <= s <= delta-1")
        )

    # spectral route: derivative of the small-cliques cubic at x = n - delta
    if p_small is not None and s <= delta - 1:
        deriv_floor = p_small.deriv(n - delta)
        out.append(
            make_check(
                "small_cliques_deriv_at_floor_value",
                params,
                deriv_floor,
                small_cliques_deriv_at_floor_closed_form(n, s, delta),
            )
        )
        out.append(
            make_check(
                "small_cliques_deriv_vertex_left",
                params,
                Fraction(n + s**2 - delta * s - 3 * s + 2 * delta - 1, 3),
                n - delta,
                "lt",
            )
        )
        if 3 * n >= delta**2 + 3 * delta:
            name = (
                "small_cliques_deriv_positive_s2"
                if s == 2
                else "small_cliques_deriv_positive"
            )
            out.append(make_check(name, params, deriv_floor, 0, "gt"))
        if s >= 3:
            out.append(
                make_check(
                    "small_cliques_deriv_chain_min", params, consts.deriv_chain_min, 0, "gt"
                )
            )

    # size route, s = 2 escape: checked by direct counting over the n grid
    if s == 2 and delta >= 3 and small_surplus is not None and n >= 6 * delta - 4:
        out.append(make_check("edge_surplus_positive_s2", params, small_surplus, 0, "gt"))

    return out


# --- the grid ------------------------------------------------------------------


def grid_row(n: int, delta: int) -> list[IdentityCheck]:
    """Every check at (n, delta), for s = 1..n//2 in order.  Raises
    ValueError when the extremal family does not exist."""
    return _grid_row(n, delta, cache(_family), cache(_sign_constants))


def _grid_row(n: int, delta: int, family, sign_constants) -> list[IdentityCheck]:
    """`grid_row`, reading each split family from `family` and each
    (s, delta) constant from `sign_constants`: the caller's per-run caches of
    `_family` and `_sign_constants`.  theta is built once for the row; the
    extremal family is the q = 1 family at s = delta."""
    e_star, p_star = family(n, delta, 1)
    theta = spectral_threshold(n, delta)
    p_star_theta = p_star(theta)
    root_residual = abs(p_star_theta)
    root_ok = root_residual <= FLOAT_RTOL * max(1.0, abs(theta) ** 3)
    checks: list[IdentityCheck] = []
    for s in range(1, n // 2 + 1):
        params = {"n": n, "s": s, "delta": delta}
        # edge surplus of the extremal family over the merged-core family
        merged_edges, p_merged = family(n, s, 1)
        rhs = Fraction((s - delta) * (2 * n - 3 * s - 3 * delta + 3), 2)
        checks.append(make_check("edge_surplus_merged_core", params, e_star - merged_edges, rhs))
        if s >= 2:
            checks += _charpoly_gap_checks(
                "charpoly_gap_merged_core", params, p_merged, p_star, s - delta, radius_gap_quadratic
            )
        q = delta + 1 - s
        p_small = small_surplus = None
        if s >= 2 and q >= 1 and n - s - q * (s - 1) >= q:
            small_edges, p_small = family(n, s, q)
            small_surplus = e_star - small_edges
            rhs = Fraction((delta - s) * edge_gap_cubic(s, n, delta), 2)
            checks.append(make_check("edge_surplus_small_cliques", params, small_surplus, rhs))
            checks += _charpoly_gap_checks(
                "theta_gap_poly_identity", params, p_small, p_star, delta - s, theta_gap_quadratic
            )
            # the same gap at theta, which must also be a root of the
            # extremal cubic (numeric; the exact points above are the proof)
            p_small_theta = p_small(theta)
            lhs = p_small_theta - p_star_theta
            rhs = (delta - s) * theta_gap_quadratic(theta, n, s, delta)
            theta_params = {
                **params,
                "theta": theta,
                "extremal_charpoly_at_theta": root_residual,
            }
            checks.append(
                IdentityCheck(
                    name="charpoly_gap_small_cliques_at_theta",
                    params=theta_params,
                    lhs=lhs,
                    rhs=rhs,
                    passed=_compare(lhs, rhs, "eq") and root_ok,
                )
            )
            if s <= delta - 1:
                checks.append(
                    make_check(
                        "small_cliques_charpoly_at_theta_positive",
                        {**params, "theta": theta},
                        p_small_theta,
                        0.0,
                        "gt",
                    )
                )
        if s >= 2:
            consts = sign_constants(s, delta)
            checks += _sign_claims(n, s, delta, p_small, small_surplus, consts)
    return checks


def run_identity_grid(delta_max: int = 8, n_extra: int = 20) -> list[IdentityCheck]:
    """Every identity and sign claim over delta in [2, delta_max], n from the
    route floors to floor + n_extra, s across each claim's range.  An empty
    grid (delta_max < 2 or n_extra < 0) is a ValueError."""
    if delta_max < 2 or n_extra < 0:
        raise ValueError(
            f"identity grid needs delta_max >= 2 and n_extra >= 0, "
            f"got delta_max={delta_max}, n_extra={n_extra}"
        )
    family, sign_constants = cache(_family), cache(_sign_constants)
    checks: list[IdentityCheck] = []
    for delta in range(2, delta_max + 1):
        floors = (edge_route_floor(delta), spectral_route_floor(delta))
        n_lo = min(floors)
        n_hi = max(floors) + n_extra
        for n in range(n_lo, n_hi + 1):
            checks.extend(_grid_row(n, delta, family, sign_constants))
    return checks


def grid_failures(checks: Iterable[IdentityCheck]) -> list[IdentityCheck]:
    return [c for c in checks if c.passed is False]
