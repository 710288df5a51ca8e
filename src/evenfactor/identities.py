"""Machine checks of the algebraic identities and sign claims behind the
two threshold routes.

Every polynomial identity is certified by exact evaluation at more sample
points than its degree (rational arithmetic, so each grid point is a proof
at that point); sign claims are evaluated in exact rationals at the floors
their hypotheses name.  Closed forms are transcribed once, here, and each
transcription is checked against an independently computed left side
(edge counts from realized graphs, characteristic polynomials from cofactor
expansion), so a transcription typo cannot silently pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Iterable, Sequence

from .graphs import FamilySpec, build_family, merged_family
from .spectral import char_poly, quotient_merged_core, quotient_small_cliques
from .thresholds import edge_route_floor, spectral_route_floor, spectral_threshold

FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class IdentityCheck:
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
    return IdentityCheck(
        name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        passed=_compare(lhs, rhs, relation),
    )


def skipped_check(name: str, params: dict, reason: str) -> IdentityCheck:
    return IdentityCheck(
        name=name, params=params, lhs=None, rhs=None, passed=None, skipped_reason=reason
    )


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


# --- family edge counts (the independently counted side) -----------------------


def _single_filler_spec(n: int, s: int) -> FamilySpec:
    return merged_family(n, s, s, 1)


def _small_cliques_spec(n: int, s: int, delta: int) -> FamilySpec:
    return merged_family(n, s, s, delta + 1 - s)


# --- the checks ---------------------------------------------------------------


def check_edge_diff_case1(n: int, s: int, delta: int) -> IdentityCheck:
    """Edge surplus of the extremal family over the merged-core family with
    oversized core, against its closed form."""
    params = {"n": n, "s": s, "delta": delta}
    lhs = (
        build_family(_single_filler_spec(n, delta)).edge_count
        - build_family(_single_filler_spec(n, s)).edge_count
    )
    rhs = Fraction((s - delta) * (2 * n - 3 * s - 3 * delta + 3), 2)
    return make_check("edge_surplus_merged_core", params, lhs, rhs)


def check_edge_diff_case3(n: int, s: int, delta: int) -> IdentityCheck:
    """Edge surplus of the extremal family over the small-cliques family,
    against (delta - s) * edge_gap_cubic(s) / 2."""
    params = {"n": n, "s": s, "delta": delta}
    lhs = (
        build_family(_single_filler_spec(n, delta)).edge_count
        - build_family(_small_cliques_spec(n, s, delta)).edge_count
    )
    rhs = Fraction((delta - s) * edge_gap_cubic(s, n, delta), 2)
    return make_check("edge_surplus_small_cliques", params, lhs, rhs)


def check_phi_diff_case1(
    n: int, s: int, delta: int, xs: Sequence = (0, 1, 2)
) -> list[IdentityCheck]:
    """Charpoly gap between the merged-core and extremal quotients at sample
    points; 3 exact points certify the quadratic identity."""
    p_merged = char_poly(quotient_merged_core(n, s))
    p_star = char_poly(quotient_merged_core(n, delta))
    out = []
    for x in xs:
        params = {"n": n, "s": s, "delta": delta, "x": x}
        lhs = p_merged(x) - p_star(x)
        rhs = (s - delta) * radius_gap_quadratic(x, n, s, delta)
        out.append(make_check("charpoly_gap_merged_core", params, lhs, rhs))
    return out


def check_phi_diff_case3(
    n: int, s: int, delta: int, theta: float | None = None
) -> IdentityCheck:
    """Charpoly gap between the small-cliques and extremal quotients at the
    spectral threshold theta; also requires theta to be a genuine root of the
    extremal cubic."""
    p_small = char_poly(quotient_small_cliques(n, s, delta))
    p_star = char_poly(quotient_merged_core(n, delta))
    if theta is None:
        theta = spectral_threshold(n, delta)
    lhs = p_small(theta) - p_star(theta)
    rhs = (delta - s) * theta_gap_quadratic(theta, n, s, delta)
    root_residual = abs(p_star(theta))
    root_ok = root_residual <= FLOAT_RTOL * max(1.0, abs(theta) ** 3)
    params = {
        "n": n,
        "s": s,
        "delta": delta,
        "theta": theta,
        "extremal_charpoly_at_theta": root_residual,
    }
    return IdentityCheck(
        name="charpoly_gap_small_cliques_at_theta",
        params=params,
        lhs=lhs,
        rhs=rhs,
        passed=_compare(lhs, rhs, "eq") and root_ok,
    )


def check_theta_gap_poly_identity(
    n: int, s: int, delta: int, xs: Sequence = (0, 1, 2)
) -> list[IdentityCheck]:
    """Exact-point certification of the same quadratic gap (the theta check
    above is numeric; this one is a proof at each sample point)."""
    p_small = char_poly(quotient_small_cliques(n, s, delta))
    p_star = char_poly(quotient_merged_core(n, delta))
    out = []
    for x in xs:
        params = {"n": n, "s": s, "delta": delta, "x": x}
        lhs = p_small(x) - p_star(x)
        rhs = (delta - s) * theta_gap_quadratic(x, n, s, delta)
        out.append(make_check("theta_gap_poly_identity", params, lhs, rhs))
    return out


def check_sign_claims(n: int, s: int, delta: int) -> list[IdentityCheck]:
    """Sign and floor claims used by the two route proofs, each evaluated in
    exact rational arithmetic inside its own hypothesis range (claims outside
    their range are reported as skipped, never evaluated)."""
    params = {"n": n, "s": s, "delta": delta}
    out: list[IdentityCheck] = []
    q = delta + 1 - s
    small_blocks_valid = s >= 2 and q >= 1 and n - s - q * (s - 1) >= q

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
    out.append(make_check("radius_gap_chain_min", params, Fraction(5 * delta - 3, 2), 0, "gt"))

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
        pivot = Fraction(3 * delta - s - 1, 2)
        deriv_at_pivot = 2 * (s - 2) * pivot + s**2 - (3 * delta + 1) * s + 6 * delta - 2
        out.append(make_check("floor_deriv_zero_at_pivot", params, deriv_at_pivot, 0))
        if 3 * n >= delta**2 + 3 * delta:
            nmin = Fraction(delta**2, 3) + delta
            out.append(make_check("floor_pivot_below_n", params, pivot, n, "lt"))
            out.append(
                make_check(
                    "floor_monotone_to_n",
                    params,
                    floor_quadratic(n, s, delta),
                    floor_quadratic(nmin, s, delta),
                    "ge",
                )
            )
            out.append(
                make_check(
                    "floor_min_value",
                    params,
                    floor_quadratic(nmin, s, delta),
                    floor_quadratic_min_closed_form(s, delta),
                )
            )
            out.append(
                make_check(
                    "floor_min_positive",
                    params,
                    floor_quadratic_min_closed_form(s, delta),
                    0,
                    "gt",
                )
            )
    else:
        out.append(
            skipped_check("floor_min_positive", params, "needs 3 <= s <= delta-1")
        )

    # spectral route: derivative of the small-cliques cubic at x = n - delta
    if 2 <= s <= delta - 1 and small_blocks_valid:
        p_small = char_poly(quotient_small_cliques(n, s, delta))
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
                    "small_cliques_deriv_chain_min",
                    params,
                    Fraction(7 * s**2 + 20 * s + 112, 9),
                    0,
                    "gt",
                )
            )

    # size route, s = 2 escape: checked by direct counting over the n grid
    if s == 2 and delta >= 3 and small_blocks_valid and n >= 6 * delta - 4:
        lhs = (
            build_family(_single_filler_spec(n, delta)).edge_count
            - build_family(_small_cliques_spec(n, s, delta)).edge_count
        )
        out.append(make_check("edge_surplus_positive_s2", params, lhs, 0, "gt"))

    return out


# --- the grid ------------------------------------------------------------------


def run_identity_grid(delta_max: int = 8, n_extra: int = 20) -> list[IdentityCheck]:
    """Every identity and sign claim over delta in [2, delta_max], n from the
    route floors to floor + n_extra, s across each claim's range."""
    checks: list[IdentityCheck] = []
    for delta in range(2, delta_max + 1):
        floors = (edge_route_floor(delta), spectral_route_floor(delta))
        n_lo = min(floors)
        n_hi = max(floors) + n_extra
        for n in range(n_lo, n_hi + 1):
            theta = None
            # n >= 2s and n >= 2*delta throughout: s <= n // 2, and n is at
            # least the smaller route floor, itself at least 5*delta-3 >= 2*delta
            for s in range(1, n // 2 + 1):
                checks.append(check_edge_diff_case1(n, s, delta))
                if s >= 2:
                    checks.extend(check_phi_diff_case1(n, s, delta))
                q = delta + 1 - s
                small_valid = s >= 2 and q >= 1 and n - s - q * (s - 1) >= q
                if small_valid:
                    checks.append(check_edge_diff_case3(n, s, delta))
                    checks.extend(check_theta_gap_poly_identity(n, s, delta))
                    if theta is None:
                        theta = spectral_threshold(n, delta)
                    checks.append(check_phi_diff_case3(n, s, delta, theta))
                    p_small = char_poly(quotient_small_cliques(n, s, delta))
                    if s <= delta - 1:
                        checks.append(
                            make_check(
                                "small_cliques_charpoly_at_theta_positive",
                                {"n": n, "s": s, "delta": delta, "theta": theta},
                                p_small(theta),
                                0.0,
                                "gt",
                            )
                        )
                if s >= 2:
                    checks.extend(check_sign_claims(n, s, delta))
    return checks


def grid_failures(checks: Iterable[IdentityCheck]) -> list[IdentityCheck]:
    return [c for c in checks if c.passed is False]
