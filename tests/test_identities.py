"""Identity checks: frozen worked examples, symbolic cross-derivation of every
transcribed closed form, and a smoke run of the grid."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from evenfactor import identities
from evenfactor.identities import (
    IdentityCheck,
    edge_gap_cubic,
    edge_route_floor,
    floor_quadratic,
    floor_quadratic_min_closed_form,
    grid_failures,
    grid_row,
    make_check,
    radius_gap_quadratic,
    run_identity_grid,
    skipped_check,
    small_cliques_deriv_at_floor_closed_form,
    spectral_route_floor,
    theta_gap_quadratic,
)

def by_name(checks, name):
    return [c for c in checks if c.name == name]


def cell(n, s, delta):
    """Every check of the grid cell (n, s, delta), in grid order."""
    return [c for c in grid_row(n, delta) if c.params["s"] == s]


def json_lines_digest(checks):
    """sha256 of the JSON lines `verify identities` prints for `checks`."""
    lines = "".join(json.dumps(c.to_json_dict()) + "\n" for c in checks)
    return hashlib.sha256(lines.encode()).hexdigest()


class TestEdgeDiffs:
    def test_case1_worked_example(self):
        (c,) = by_name(cell(12, 3, 2), "edge_surplus_merged_core")
        assert (c.lhs, c.rhs, c.passed) == (6, Fraction(6), True)

    def test_case1_degenerate_equal(self):
        (c,) = by_name(cell(10, 5, 5), "edge_surplus_merged_core")
        assert c.lhs == 0 and c.passed

    def test_case1_another_point(self):
        (c,) = by_name(cell(16, 4, 3), "edge_surplus_merged_core")
        assert c.passed

    def test_case3_worked_example(self):
        (c,) = by_name(cell(14, 3, 4), "edge_surplus_small_cliques")
        assert c.lhs == 67 - 59 == 8
        assert edge_gap_cubic(3, 14, 4) == 16
        assert c.passed

    def test_case3_s_equals_delta(self):
        (c,) = by_name(cell(12, 3, 3), "edge_surplus_small_cliques")
        assert c.lhs == 0 and c.passed

    def test_case3_s2_escape(self):
        (c,) = by_name(cell(20, 2, 5), "edge_surplus_small_cliques")
        assert c.passed and c.lhs > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            grid_row(8, 6)  # the extremal family's big block underflows


class TestCharpolyGaps:
    def test_case1_sample_points(self):
        gaps = by_name(cell(10, 4, 3), "charpoly_gap_merged_core")
        assert [c.params["x"] for c in gaps] == [0, 1, 2]
        for c in gaps:
            assert c.passed

    def test_case1_s_equals_delta_zero(self):
        gaps = by_name(cell(12, 3, 3), "charpoly_gap_merged_core")
        assert len(gaps) == 3
        for c in gaps:
            assert c.lhs == 0 and c.passed

    def test_case1_at_radius_floor(self):
        # the merged-core gap quadratic at x = n - delta = 10
        (c,) = by_name(cell(12, 5, 2), "radius_gap_at_floor_positive")
        assert c.passed
        assert c.lhs == radius_gap_quadratic(10, 12, 5, 2) > 0

    def test_case3_at_theta(self):
        (c,) = by_name(cell(14, 3, 4), "charpoly_gap_small_cliques_at_theta")
        assert c.passed
        assert c.params["extremal_charpoly_at_theta"] <= 1e-8

    def test_case3_s2(self):
        (c,) = by_name(cell(20, 2, 5), "charpoly_gap_small_cliques_at_theta")
        assert c.passed

    def test_case3_s_equals_delta(self):
        (c,) = by_name(cell(12, 3, 3), "charpoly_gap_small_cliques_at_theta")
        assert abs(c.lhs) < 1e-7 and c.passed

    def test_poly_certification_exact(self):
        gaps = by_name(cell(14, 3, 4), "theta_gap_poly_identity")
        assert [c.params["x"] for c in gaps] == [0, 1, 2]
        for c in gaps:
            assert c.passed


class TestTranscriptions:
    """Re-derive every closed form symbolically; a typo in the module's
    transcription cannot pass these."""

    sympy = pytest.importorskip("sympy")

    def _syms(self):
        import sympy

        return sympy.symbols("x n s delta")

    def _sym_charpoly(self, rows):
        import sympy

        x = sympy.symbols("x")
        return sympy.expand(sympy.det(x * sympy.eye(3) - sympy.Matrix(rows)))

    def test_radius_gap_quadratic(self):
        import sympy

        x, n, s, d = self._syms()
        b2 = self._sym_charpoly([[s - 1, n - 2 * s + 1, s - 1], [s, n - 2 * s, 0], [s, 0, 0]])
        bstar = b2.subs(s, d)
        gap = sympy.expand(b2 - bstar - (s - d) * radius_gap_quadratic(x, n, s, d))
        assert gap == 0

    def test_theta_gap_quadratic(self):
        import sympy

        x, n, s, d = self._syms()
        q = d + 1 - s
        big = n - s - q * (s - 1)
        b3 = self._sym_charpoly([[s - 1, big, (s - 1) * q], [s, big - 1, 0], [s, 0, q - 1]])
        bstar = self._sym_charpoly(
            [[d - 1, n - 2 * d + 1, d - 1], [d, n - 2 * d, 0], [d, 0, 0]]
        )
        gap = sympy.expand(b3 - bstar - (d - s) * theta_gap_quadratic(x, n, s, d))
        assert gap == 0

    def test_floor_quadratic_is_theta_gap_at_radius_floor(self):
        import sympy

        x, n, s, d = self._syms()
        lhs = theta_gap_quadratic(n - d, n, s, d)
        rhs = floor_quadratic(n, s, d)
        assert sympy.expand(lhs - rhs) == 0

    def test_floor_quadratic_min(self):
        import sympy

        x, n, s, d = self._syms()
        nmin = sympy.Rational(1, 3) * d**2 + d
        got = sympy.expand(floor_quadratic(nmin, s, d))
        inner = (
            d * ((s - 2) * d**2 - 3 * (s - 2) * d + 3 * s**2 - 3 * s + 3)
            - 9 * s**3
            + 27 * s**2
            - 18 * s
            + 9
        )
        want = sympy.expand(d * inner / 9 + s * (s**3 - 5 * s**2 + 8 * s - 5))
        assert sympy.expand(got - want) == 0

    def test_floor_quadratic_pivot_derivative(self):
        import sympy

        x, n, s, d = self._syms()
        hp = sympy.diff(floor_quadratic(x, s, d), x)
        assert sympy.simplify(hp.subs(x, sympy.Rational(1, 2) * (3 * d - s - 1))) == 0

    def test_small_cliques_derivative_closed_form(self):
        import sympy

        x, n, s, d = self._syms()
        q = d + 1 - s
        big = n - s - q * (s - 1)
        b3 = self._sym_charpoly([[s - 1, big, (s - 1) * q], [s, big - 1, 0], [s, 0, q - 1]])
        deriv = sympy.diff(b3, x).subs(x, n - d)
        want = small_cliques_deriv_at_floor_closed_form(n, s, d)
        assert sympy.expand(deriv - want) == 0

    def test_edge_gap_cubic(self):
        import sympy

        x, n, s, d = self._syms()
        e_star = sympy.binomial(n - d + 1, 2) + d * (d - 1)
        e_small = (
            sympy.binomial(n - (d + 1 - s) * (s - 1), 2)
            + s * (s - 1) * (d + 1 - s)
            + (s - 1) * sympy.binomial(d + 1 - s, 2)
        )
        gap = sympy.expand(
            e_star - e_small - sympy.Rational(1, 2) * (d - s) * edge_gap_cubic(s, n, d)
        )
        assert sympy.simplify(gap) == 0

    def test_edge_gap_at_3_is_linear(self):
        import sympy

        x, n, s, d = self._syms()
        assert sympy.expand(edge_gap_cubic(3, n, d) - (2 * n - 3 * d)) == 0


class TestSignClaims:
    def test_edge_cubic_at_3_example(self):
        checks = cell(14, 3, 3)
        (value,) = by_name(checks, "edge_cubic_at_3_value")
        assert value.lhs == 19 and value.passed
        (pos,) = by_name(checks, "edge_cubic_at_3_positive")
        assert pos.lhs == 19 and pos.passed

    def test_radius_chain_min_example(self):
        checks = cell(7, 3, 2)
        (chain,) = by_name(checks, "radius_gap_chain_min")
        assert chain.lhs == Fraction(7, 2) and chain.passed

    def test_deriv_chain_min_example(self):
        checks = cell(10, 3, 4)
        (chain,) = by_name(checks, "small_cliques_deriv_chain_min")
        assert chain.lhs == Fraction(235, 9) and chain.passed

    def test_floor_min_at_3_4(self):
        assert floor_quadratic_min_closed_form(3, 4) == Fraction(247, 9)
        checks = cell(14, 3, 4)
        (fm,) = by_name(checks, "floor_min_value")
        assert fm.passed
        (fp,) = by_name(checks, "floor_min_positive")
        assert fp.lhs == Fraction(247, 9) and fp.passed

    def test_pivot_zero_is_exact(self):
        for n, s, delta in [(14, 3, 4), (20, 4, 6), (30, 5, 8)]:
            checks = cell(n, s, delta)
            (piv,) = by_name(checks, "floor_deriv_zero_at_pivot")
            assert piv.lhs == 0 and piv.passed

    def test_s3_slope_boundary(self):
        checks = cell(14, 3, 4)
        (slope,) = by_name(checks, "theta_gap_slope_positive_s3")
        assert slope.lhs == 14 - 4 - 1 and slope.passed
        assert slope.params.get("boundary") == "s=3"
        checks = cell(20, 4, 6)
        assert by_name(checks, "theta_gap_vertex_left_of_floor")[0].passed

    def test_out_of_range_claims_are_skipped(self):
        checks = cell(8, 2, 2)
        skipped = [c for c in checks if c.passed is None]
        assert skipped
        assert all(c.skipped_reason for c in skipped)


@pytest.fixture(scope="module")
def full_grid():
    """The grid `verify identities` prints by default."""
    return run_identity_grid(delta_max=8, n_extra=20)


class TestGrid:
    def test_floors(self):
        assert edge_route_floor(2) == 8
        assert edge_route_floor(3) == 14
        assert edge_route_floor(6) == 32
        assert spectral_route_floor(2) == 7
        assert spectral_route_floor(4) == 17
        assert spectral_route_floor(12) == 60

    def test_small_grid_all_pass(self):
        checks = run_identity_grid(delta_max=4, n_extra=4)
        fails = grid_failures(checks)
        assert not fails
        evaluated = [c for c in checks if c.passed is not None]
        assert len(evaluated) > 500

    def test_grid_output_is_pinned(self, full_grid):
        checks = full_grid
        assert Counter(c.name for c in checks) == {
            "charpoly_gap_merged_core": 8502,
            "charpoly_gap_small_cliques_at_theta": 728,
            "edge_cubic_at_3_floor": 2464,
            "edge_cubic_at_3_positive": 2834,
            "edge_cubic_at_3_value": 2464,
            "edge_cubic_monotone_from_3": 2834,
            "edge_cubic_slope_min_nonneg": 400,
            "edge_cubic_slope_min_value": 400,
            "edge_surplus_merged_core": 3009,
            "edge_surplus_positive_s2": 126,
            "edge_surplus_small_cliques": 728,
            "floor_deriv_zero_at_pivot": 400,
            "floor_min_positive": 2834,
            "floor_min_value": 400,
            "floor_monotone_to_n": 400,
            "floor_pivot_below_n": 400,
            "radius_gap_at_floor_positive": 2106,
            "radius_gap_at_floor_value": 2834,
            "radius_gap_chain_min": 2834,
            "small_cliques_charpoly_at_theta_positive": 553,
            "small_cliques_deriv_at_floor_value": 553,
            "small_cliques_deriv_chain_min": 400,
            "small_cliques_deriv_positive": 400,
            "small_cliques_deriv_positive_s2": 153,
            "small_cliques_deriv_vertex_left": 553,
            "theta_gap_floor_value": 553,
            "theta_gap_poly_identity": 2184,
            "theta_gap_slope_positive_s3": 130,
            "theta_gap_vertex_left_of_floor": 270,
        }
        assert len(checks) == 42446
        assert sum(1 for c in checks if c.passed is None) == 5966
        # every byte of the JSON lines `verify identities` prints, on this
        # grid and on a small one
        assert json_lines_digest(checks) == (
            "ecb571f56cd1061965c8aed6098b385e9058c19096b06cb4ca194ee8e41f16a0"
        )
        small = run_identity_grid(delta_max=4, n_extra=4)
        assert len(small) == 1960
        assert json_lines_digest(small) == (
            "bcbf810383109632379518a049ed7398310a219808263dd1b602cd7c4018fb3d"
        )

    def test_empty_grid_rejected(self):
        for delta_max, n_extra in ((1, 20), (0, 0), (8, -1)):
            with pytest.raises(ValueError, match="identity grid needs"):
                run_identity_grid(delta_max=delta_max, n_extra=n_extra)

    def test_json_lines_are_well_formed(self):
        checks = run_identity_grid(delta_max=2, n_extra=1)
        for c in checks[:200]:
            blob = json.loads(json.dumps(c.to_json_dict()))
            assert set(blob) >= {"name", "params", "lhs", "rhs", "pass"}

    def test_fraction_encoding(self):
        c = make_check("x", {"q": Fraction(1, 3)}, Fraction(247, 9), 0, "gt")
        d = c.to_json_dict()
        assert d["lhs"] == "247/9" and d["params"]["q"] == "1/3"
        c = make_check("x", {}, Fraction(4, 2), 2)
        assert c.to_json_dict()["lhs"] == 2


class TestGridMemo:
    """The grid builds each family and each (s, delta) constant once per
    run; nothing it builds outlives the call."""

    @pytest.mark.parametrize("n, delta", [(8, 2), (26, 5), (44, 8)])
    def test_row_alone_equals_its_slice_of_the_grid(self, full_grid, n, delta):
        row = grid_row(n, delta)
        assert row == [c for c in full_grid if (c.params["n"], c.params["delta"]) == (n, delta)]
        # the row covers the s = 2 and s = 3 cells and the small-cliques
        # family at s = delta, where it is the extremal graph itself
        cells = {c.params["s"] for c in by_name(row, "charpoly_gap_merged_core")}
        assert {2, 3} <= cells
        (small,) = [c for c in by_name(row, "edge_surplus_small_cliques") if c.params["s"] == delta]
        assert small.lhs == 0 and small.passed

    def test_successive_runs_are_equal_and_rebuild_every_family(self, monkeypatch):
        realized = []

        def counting(build):
            def wrapped(*args):
                realized.append((build.__name__, args))
                return build(*args)

            return wrapped

        monkeypatch.setattr(identities, "extremal", counting(identities.extremal))
        monkeypatch.setattr(identities, "build_family", counting(identities.build_family))
        first = run_identity_grid(delta_max=4, n_extra=4)
        first_realized = realized.copy()
        realized.clear()
        second = run_identity_grid(delta_max=4, n_extra=4)
        assert first == second
        assert first_realized == realized
        # each family is realized once per run, not once per cell
        assert len(set(realized)) == len(realized) > 0
        assert len(realized) < sum(1 for c in first if c.name.startswith("edge_surplus_"))

    def test_bad_row_still_raises_after_a_run(self):
        run_identity_grid(delta_max=2, n_extra=1)
        with pytest.raises(ValueError, match="n=8 too small for delta=6"):
            grid_row(8, 6)


class TestCheckRecord:
    def test_fields_are_frozen(self):
        c = make_check("x", {}, 1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.passed = False

    def test_fields_cannot_be_deleted(self):
        c = make_check("x", {}, 1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del c.passed

    def test_builders_fill_each_field(self):
        # the builders pass fields by position; each must land in its own field
        p = {"n": 8}
        assert make_check("x", p, 1, 2, "lt") == IdentityCheck(
            name="x", params=p, lhs=1, rhs=2, relation="lt", passed=True
        )
        assert skipped_check("x", p, "why") == IdentityCheck(
            name="x", params=p, lhs=None, rhs=None, passed=None, skipped_reason="why"
        )

    def test_unknown_relation_is_refused(self):
        with pytest.raises(ValueError, match="unknown relation 'le'"):
            make_check("x", {}, 1, 1, "le")

    def test_record_is_slotted(self):
        # a per-instance __dict__ makes each of the grid's tens of thousands
        # of checks larger
        c = make_check("x", {}, 1, 1)
        assert not hasattr(c, "__dict__")
        assert "__dict__" not in dir(IdentityCheck)
