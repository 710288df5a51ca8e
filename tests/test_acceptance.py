"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line each (visible with `pytest -s tests/test_acceptance.py`).

Grid shapes, sample counts, seeds and tolerances are pinned here; nothing is
deferred to later calibration.
"""

import time
from itertools import combinations

from evenfactor.factor import (
    EXISTS,
    check_yan_kano_condition,
    has_even_factor,
    has_even_factor_naive,
    verify_even_factor,
)
from evenfactor.graph6 import parse_graph6, write_graph6
from evenfactor.graphs import Graph, complete, extremal
from evenfactor.harness import lemma_merge_sweep, soundness_sweep, tightness_report
from evenfactor.identities import grid_failures, run_identity_grid
from evenfactor.rng import SplitMix64, random_graph_with_edges
from evenfactor.spectral import char_poly, largest_real_root, spectral_radius, split_quotient
from evenfactor.thresholds import edge_threshold, spectral_threshold


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def edge_route_floor(delta: int) -> int:
    return max(6 * delta - 4, -(-(delta**2 + 7 * delta + 4) // 6))


def test_01_edge_threshold_exact():
    t0 = time.time()
    bad = 0
    points = 0
    for delta in range(2, 7):
        start = edge_route_floor(delta)
        start += start % 2
        for n in range(start, 61, 2):
            points += 1
            if edge_threshold(n, delta) != extremal(n, delta).edge_count:
                bad += 1
    dt = time.time() - t0
    report(
        "edge-threshold-exactness",
        bad == 0 and dt < 1.0,
        f"({points} grid points, {dt:.2f}s)",
    )


def test_02_quotient_eigenvalue_equality():
    t0 = time.time()
    worst = 0.0
    for delta in (2, 3, 4):
        for n in range(2 * delta, 41, 2):
            rho = spectral_radius(extremal(n, delta)).rho
            root = largest_real_root(
                char_poly(split_quotient(n, delta, 1)), float(n - delta)
            )
            worst = max(worst, abs(rho - root))
    dt = time.time() - t0
    report(
        "quotient-eigenvalue-equality",
        worst <= 1e-8 and dt < 10.0,
        f"(worst gap {worst:.2e}, {dt:.2f}s)",
    )


def test_03_strict_spectral_floor():
    margin = float("inf")
    for delta in (2, 3, 4):
        for n in range(2 * delta, 41, 2):
            margin = min(margin, spectral_threshold(n, delta) - (n - delta))
    report(
        "strict-spectral-floor",
        margin > 1e-6,
        f"(min margin above n-delta: {margin:.2e})",
    )


def test_04_merge_lemma_sweeps():
    t0 = time.time()
    rep = lemma_merge_sweep(14, 4, [1, 2])
    dt = time.time() - t0
    report(
        "merge-lemma-sweeps",
        rep.passed and dt < 60.0,
        f"({rep.findings['instances']} instances, "
        f"{len(rep.counterexamples)} violations, {dt:.1f}s)",
    )


def test_05_oracle_equivalence():
    t0 = time.time()
    disagreements = 0
    pairs = list(combinations(range(6), 2))
    checked = 0
    for code in range(1 << 15):
        g = Graph.from_edges(6, [pairs[i] for i in range(15) if code >> i & 1])
        if not g.is_connected():
            continue
        checked += 1
        if has_even_factor(g).status != has_even_factor_naive(g).status:
            disagreements += 1
    rng = SplitMix64(20240601)
    randoms = 0
    while randoms < 2000:
        n = 7 + rng.randrange(3)
        m = n + rng.randrange(17 - n)
        g = random_graph_with_edges(n, m, rng)
        if not g.is_connected():
            continue
        randoms += 1
        if has_even_factor(g).status != has_even_factor_naive(g).status:
            disagreements += 1
    dt = time.time() - t0
    report(
        "oracle-equivalence",
        disagreements == 0 and dt < 300.0,
        f"({checked} exhaustive + {randoms} random graphs, "
        f"{disagreements} disagreements, {dt:.1f}s)",
    )


def test_06_condition_implies_factor():
    rng = SplitMix64(624)
    counterexamples = 0
    held = 0
    drawn = 0
    while drawn < 2000:
        n = (6, 8, 10)[rng.randrange(3)]
        m_max = n * (n - 1) // 2
        m = n - 1 + rng.randrange(m_max - n + 2)
        g = random_graph_with_edges(n, m, rng)
        if not g.is_connected():
            continue
        drawn += 1
        if check_yan_kano_condition(g).holds:
            held += 1
            if has_even_factor(g).status != EXISTS:
                counterexamples += 1
    report(
        "condition-implies-factor",
        counterexamples == 0 and held > 100,
        f"({drawn} connected graphs, condition held on {held}, "
        f"{counterexamples} counterexamples)",
    )


def test_07_theorem_soundness_sweeps():
    t0 = time.time()
    results = {}
    for which in ("edges", "spectral"):
        rep = soundness_sweep(
            ns=[8, 10], delta=2, samples=500, seed=42, which=which
        )
        results[which] = (
            len(rep.counterexamples),
            rep.findings["unknown_rows"],
            len(rep.rows),
        )
    dt = time.time() - t0
    ok = all(cx == 0 and unk == 0 for cx, unk, _ in results.values()) and dt < 600.0
    report(
        "theorem-soundness-sweeps",
        ok,
        f"(edges {results['edges']}, spectral {results['spectral']} "
        f"as (cx, unknown, rows), {dt:.1f}s)",
    )


def test_08_proof_identity_grid():
    t0 = time.time()
    checks = run_identity_grid(delta_max=8, n_extra=20)
    fails = grid_failures(checks)
    dt = time.time() - t0
    evaluated = sum(1 for c in checks if c.passed is not None)
    report(
        "proof-identity-grid",
        not fails and dt < 30.0,
        f"({evaluated} checks evaluated, {len(fails)} failures, {dt:.1f}s)",
    )


def test_09_tightness_reports():
    ok = True
    details = []
    for n, delta in ((8, 2), (10, 2)):
        rep = tightness_report(n, delta)
        checks = rep.findings["checks"]
        finding = rep.findings["extremal_oracle_finding"]
        ok = ok and rep.passed and all(checks.values())
        ok = ok and rep.findings["condition_witness"] == list(range(delta))
        ok = ok and rep.findings["condition_witness_odd_components"] == delta
        # the oracle's verdict on the extremal graph is recorded, not asserted
        ok = ok and finding["status"] in ("exists", "not_exists", "unknown")
        if finding["status"] == EXISTS:
            cert = tuple(tuple(e) for e in finding["certificate"])
            ok = ok and verify_even_factor(extremal(n, delta), cert)
        details.append(f"({n},{delta}): oracle={finding['status']}")
    report("tightness-reports", ok, "; ".join(details))


def test_10_graph6_roundtrip():
    rng = SplitMix64(31415926)
    bad = 0
    for _ in range(10_000):
        n = 1 + rng.randrange(30)
        m = rng.randrange(n * (n - 1) // 2 + 1)
        g = random_graph_with_edges(n, m, rng)
        if parse_graph6(write_graph6(g)) != g:
            bad += 1
    report("graph6-roundtrip", bad == 0, f"(10000 graphs, {bad} failures)")


def test_11_paper_range_soundness_sweeps():
    # the paper's own range: delta >= 3 at the size-route floor n = 6*delta - 4
    t0 = time.time()
    results = {}
    for n, delta in ((14, 3), (20, 4)):
        for which in ("edges", "spectral"):
            rep = soundness_sweep(ns=[n], delta=delta, samples=200, seed=42, which=which)
            results[(n, delta, which)] = (
                len(rep.counterexamples),
                rep.findings["unknown_rows"],
                len(rep.rows),
            )
    dt = time.time() - t0
    ok = (
        all(cx == 0 and unk == 0 and rows == 200 for cx, unk, rows in results.values())
        and dt < 60.0
    )
    report(
        "paper-range-soundness-sweeps",
        ok,
        "; ".join(f"{k}: {v}" for k, v in results.items())
        + f" as (cx, unknown, rows), {dt:.1f}s",
    )


def test_12_complete_graphs_past_64_kernel_cycles():
    # K_n for even n >= 32 has a cycle space past 64 dimensions and every
    # vertex of odd degree: its factor is K_n minus a perfect matching
    t0 = time.time()
    found = {}
    for n in range(32, 65, 2):
        g = complete(n)
        res = has_even_factor(g)
        found[n] = res.status == EXISTS and verify_even_factor(g, res.certificate)
    dt = time.time() - t0
    report(
        "complete-graphs-exist",
        all(found.values()),
        f"unverified at n={[n for n, ok in found.items() if not ok]}, {dt:.1f}s",
    )


def test_13_route_floor_soundness_sweeps():
    # the size-route floor n = 6*delta - 4 for delta = 5..8, where the
    # sampler draws graphs as dense as K_n itself
    t0 = time.time()
    results = {}
    for n, delta in ((26, 5), (32, 6), (38, 7), (44, 8)):
        for which in ("edges", "spectral"):
            rep = soundness_sweep(ns=[n], delta=delta, samples=50, seed=7, which=which)
            results[(n, delta, which)] = (
                len(rep.counterexamples),
                rep.findings["unknown_rows"],
                len(rep.rows),
            )
    dt = time.time() - t0
    ok = (
        all(cx == 0 and unk == 0 and rows == 50 for cx, unk, rows in results.values())
        and dt < 60.0
    )
    report(
        "route-floor-soundness-sweeps",
        ok,
        "; ".join(f"{k}: {v}" for k, v in results.items())
        + f" as (cx, unknown, rows), {dt:.1f}s",
    )
