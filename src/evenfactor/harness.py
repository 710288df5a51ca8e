"""Experiment campaigns: merge-lemma sweeps, guarantee soundness sweeps and
threshold tightness reports.

Every campaign is deterministic given its parameters and seed; rows are
emitted sorted by row_id in the fixed CSV schema below.  The elapsed_ms
column is the one timing-derived (hence nondeterministic) field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator

from .factor import (
    EXISTS,
    UNKNOWN,
    EvenFactorResult,
    check_yan_kano_condition,
    has_even_factor,
)
from .graph6 import write_graph6
from .graphs import FamilySpec, Graph, build_family, extremal, merged_family
from .rng import SplitMix64, complete_minus_random_edges
from .spectral import spectral_radii
from .thresholds import (
    GUARANTEED_BY_EDGES,
    GUARANTEED_BY_SPECTRAL,
    Verdict,
    applicability,
    edge_threshold,
    meets_spectral,
    recognize_extremal,
    spectral_threshold,
    verdict,
)

CSV_COLUMNS = [
    "campaign",
    "seed",
    "row_id",
    "graph6",
    "n",
    "delta",
    "e",
    "rho",
    "e_thr",
    "rho_thr",
    "meets_e",
    "meets_rho",
    "is_extremal",
    "oracle",
    "cost_candidates",
    "elapsed_ms",
]

# draws the sampler may reject before it gives up on one sample
RETRY_BUDGET = 500


@dataclass
class SweepReport:
    campaign: str
    seed: int
    params: dict
    findings: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10f}"
    return str(value)


def csv_lines(report: SweepReport) -> Iterator[str]:
    yield ",".join(CSV_COLUMNS)
    for row in sorted(report.rows, key=lambda r: r["row_id"]):
        yield ",".join(_csv_cell(row.get(col)) for col in CSV_COLUMNS)


def _row(
    campaign: str,
    seed: int,
    row_id: int,
    g: Graph,
    **overrides,
) -> dict:
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(
        campaign=campaign,
        seed=seed,
        row_id=row_id,
        graph6=write_graph6(g),
        n=g.n,
        delta=g.min_degree(),
        e=g.edge_count,
        **overrides,
    )
    return row


# --- merge-lemma sweep ---------------------------------------------------------


def _partitions(total: int, t: int, p: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing t-tuples of parts >= p summing to total, first <= cap."""
    if t == 1:
        if p <= total <= cap:
            yield (total,)
        return
    lo = -(-total // t)
    hi = min(cap, total - p * (t - 1))
    for first in range(hi, max(lo, p) - 1, -1):
        for rest in _partitions(total - first, t - 1, p, first):
            yield (first,) + rest


def lemma_merge_sweep(max_n: int, max_s: int, ps: Iterable[int]) -> SweepReport:
    """For every valid split family strictly below its merged form, assert the
    strict edge-count and spectral-radius inequalities against the merged
    family K_s v (K_{n-s-p(t-1)} u (t-1)K_p); a radius is strictly below
    when `meets_spectral` fails, so the lemma reads the tolerance of every
    other radius comparison.  Every filler order p is at least 1, and a
    repeated one counts once; a sweep that yields no instance is a
    ValueError."""
    ps = sorted(set(ps))
    if any(p < 1 for p in ps):
        raise ValueError(f"lemma parts must be at least 1, got {ps}")
    report = SweepReport(
        campaign="lemma_merge",
        seed=0,
        params={"max_n": max_n, "max_s": max_s, "ps": ps},
    )
    # every family is built first, in the order a per-graph loop would visit
    # them, so that one spectral_radii call covers the sweep
    graphs: list[Graph] = []
    cases: list[tuple[int, int]] = []  # (family, its merged family) in graphs
    for s in range(1, max_s + 1):
        for p in ps:
            for n in range(s + 2 * p, max_n + 1):
                total = n - s
                for t in range(2, total // p + 1):
                    big = total - p * (t - 1)
                    if big - 1 < p:
                        continue
                    merged = len(graphs)
                    graphs.append(build_family(merged_family(n, s, t, p)))
                    for parts in _partitions(total, t, p, big - 1):
                        cases.append((len(graphs), merged))
                        graphs.append(build_family(FamilySpec(s, parts)))
    if not cases:
        raise ValueError(f"no lemma instance for max_n={max_n}, max_s={max_s}, ps={ps}")
    radii = spectral_radii(graphs)
    for row_id, (i, m) in enumerate(cases):
        gl, rho_l = graphs[i], radii[i].rho
        e_merged, rho_merged = graphs[m].edge_count, radii[m].rho
        edge_ok = gl.edge_count < e_merged
        rho_ok = not meets_spectral(rho_l, rho_merged)
        row = _row(
            "lemma_merge",
            0,
            row_id,
            gl,
            rho=rho_l,
            e_thr=e_merged,
            rho_thr=rho_merged,
            meets_e=edge_ok,
            meets_rho=rho_ok,
            is_extremal=False,
        )
        report.rows.append(row)
        if not (edge_ok and rho_ok):
            report.counterexamples.append(row)
    report.findings["instances"] = len(cases)
    return report


# --- soundness sweep -----------------------------------------------------------


def _require_route(n: int, delta: int, thm: str) -> None:
    if not applicability(n, delta, thm):
        raise ValueError(f"route {thm} hypotheses unmet for n={n}, delta={delta}")


def _evaluate_oracle(g: Graph) -> tuple[str, int, int]:
    t0 = time.perf_counter()
    res = has_even_factor(g)
    ms = int((time.perf_counter() - t0) * 1000)
    return (res.status, res.search_cost, ms)


def soundness_sweep(
    ns: Iterable[int],
    delta: int,
    samples: int,
    seed: int,
    which: str = "edges",
) -> SweepReport:
    """Sample connected graphs meeting the requested threshold (uniform over
    the complement-edge budget), then assert the oracle finds an even factor
    on every non-extremal draw.  Extremal draws are logged, not asserted.

    Both routes sample in rounds: each n draws one graph per sample still
    open and computes the radii of the new draws that pass the min-degree
    and connectivity filter in one spectral_radii call (none when no draw
    is new), then walks the draws in order through the per-sample accept
    and RETRY_BUDGET logic.  Every open sample needs at least one more draw,
    so a round never draws past the last one used and the rows equal a
    draw-at-a-time loop's bit for bit.

    Each distinct graph of the sweep is filtered once, solved for its radius
    once and, if a sample accepts it, encoded to graph6, recognised and
    decided by the oracle once; a repeated draw reuses those results, so its
    row repeats every cell of its first occurrence's row but row_id,
    elapsed_ms included.  Nothing is kept across calls.  findings["draws"] counts every graph drawn,
    accepted, rejected or repeated, and findings["distinct_graphs"] the
    distinct graphs among the rows.

    Every n must meet the hypotheses of the route named by `which` (1.1 for
    edges, 1.2 for spectral).  At least one n and one sample are
    required."""
    if which not in ("edges", "spectral"):
        raise ValueError(f"which must be edges|spectral, got {which!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ns = list(ns)
    if not ns:
        raise ValueError("a soundness sweep needs at least one n")
    for n in ns:
        _require_route(n, delta, "1.1" if which == "edges" else "1.2")
    report = SweepReport(
        campaign=f"soundness_{which}",
        seed=seed,
        params={
            "ns": ns,
            "delta": delta,
            "samples": samples,
            "which": which,
        },
    )
    rng = SplitMix64(seed)
    # memo[adj]: what the sweep knows of the first draw with that adjacency,
    # for its repeats: None if it fails the filter, else [rho, row], row
    # set to its first row once a sample accepts the graph.  The graph
    # fixes n and with it every cell but row_id, so each later row is a copy
    memo: dict[tuple[int, ...], list | None] = {}
    draws = distinct = sampler_failures = 0
    for n in ns:
        e_thr = edge_threshold(n, delta)
        rho_thr = spectral_threshold(n, delta)
        budget = comb(n, 2) - e_thr
        left = samples
        attempts = 0  # rejected draws of the sample now open
        while left:
            # one draw per open sample: each needs at least one more
            drawn, fresh = [], []
            for _ in range(left):
                k = rng.randrange(budget + 1)
                g = complete_minus_random_edges(n, k, rng)
                if g.adj in memo:
                    entry = memo[g.adj]
                # minimum degree (n - 1)/2 or more connects g: two vertices
                # that are not adjacent have n - 1 neighbours among the n - 2
                # others, so they share one
                elif (low := g.min_degree() or 0) >= delta and (2 * low >= n - 1 or g.is_connected()):
                    entry = memo[g.adj] = [None, None]
                    fresh.append((g, entry))
                else:
                    entry = memo[g.adj] = None
                drawn.append((g, entry))
            draws += left
            if fresh:
                for (_, entry), res in zip(fresh, spectral_radii([g for g, _ in fresh])):
                    entry[0] = res.rho
            for g, entry in drawn:
                # the edge route accepts a draw whatever its rho
                if entry is None or (which == "spectral" and not meets_spectral(entry[0], rho_thr)):
                    attempts += 1
                    if attempts < RETRY_BUDGET:
                        continue
                    sampler_failures += 1
                else:
                    rho, row = entry
                    if row is None:
                        status, cost, ms = _evaluate_oracle(g)
                        row = entry[1] = _row(
                            report.campaign,
                            seed,
                            len(report.rows),
                            g,
                            rho=rho,
                            e_thr=e_thr,
                            rho_thr=rho_thr,
                            meets_e=g.edge_count >= e_thr,
                            meets_rho=meets_spectral(rho, rho_thr),
                            is_extremal=recognize_extremal(g) == (n, delta),
                            oracle=status,
                            cost_candidates=cost,
                            elapsed_ms=ms,
                        )
                        distinct += 1
                    report.rows.append(dict(row, row_id=len(report.rows)))
                left -= 1
                attempts = 0

    unknowns = 0
    for row in report.rows:
        if row["oracle"] == UNKNOWN:
            unknowns += 1
        elif not row["is_extremal"] and row["oracle"] != EXISTS:
            report.counterexamples.append(row)
    report.findings["sampler_failures"] = sampler_failures
    report.findings["unknown_rows"] = unknowns
    report.findings["extremal_draws"] = sum(1 for row in report.rows if row["is_extremal"])
    report.findings["distinct_graphs"] = distinct
    report.findings["draws"] = draws
    return report


# --- tightness report ----------------------------------------------------------


def tightness_report(n: int, delta: int) -> SweepReport:
    """Equality rows for the extremal graph, the failing odd-components
    condition with its witness, the oracle's (unasserted) finding on the
    extremal graph itself, and guarantee-plus-oracle confirmation for every
    one-edge supergraph."""
    for thm in ("1.1", "1.2"):
        _require_route(n, delta, thm)
    report = SweepReport(
        campaign="tightness", seed=0, params={"n": n, "delta": delta}
    )
    g = extremal(n, delta)
    base_row, vd, oracle = _tightness_row(0, g, delta)
    cond = check_yan_kano_condition(g)
    core = tuple(range(delta))

    checks = {
        "edge_threshold_equality": g.edge_count == vd.edge_threshold,
        "spectral_threshold_equality": (
            meets_spectral(vd.rho_G, vd.spectral_threshold)
            and meets_spectral(vd.spectral_threshold, vd.rho_G)
        ),
        "condition_fails": not cond.holds,
        "condition_witness_is_core": cond.witness == core,
        "witness_odd_components_equal_delta": cond.witness_odd_components == delta,
    }
    report.findings.update(
        {
            "checks": checks,
            "edge_count": g.edge_count,
            "edge_threshold": vd.edge_threshold,
            "rho": vd.rho_G,
            "spectral_threshold": vd.spectral_threshold,
            "condition_witness": list(cond.witness or ()),
            "condition_witness_odd_components": cond.witness_odd_components,
            "extremal_oracle_finding": {
                "status": oracle.status,
                "certificate": [list(e) for e in oracle.certificate or ()],
                "search_cost": oracle.search_cost,
            },
        }
    )
    report.rows.append(base_row)
    if not all(checks.values()):
        report.counterexamples.append(base_row)

    for row_id, (u, v) in enumerate(g.non_edges(), start=1):
        row, vd, res = _tightness_row(row_id, g.with_edge(u, v), delta)
        report.rows.append(row)
        guaranteed = vd.guarantee in (GUARANTEED_BY_EDGES, GUARANTEED_BY_SPECTRAL)
        if not guaranteed or res.status != EXISTS:
            report.counterexamples.append(row)
    return report


def _tightness_row(row_id: int, h: Graph, delta: int) -> tuple[dict, Verdict, EvenFactorResult]:
    """The tightness row of h, its threshold columns all from its verdict.

    Every missing edge of the extremal graph touches a minimum-degree
    vertex, so delta rises on a one-edge supergraph; the routes stay valid
    for min degree >= delta, which the delta override expresses."""
    vd = verdict(h, which="both", delta=delta)
    res = has_even_factor(h)
    row = _row(
        "tightness",
        0,
        row_id,
        h,
        rho=vd.rho_G,
        e_thr=vd.edge_threshold,
        rho_thr=vd.spectral_threshold,
        meets_e=vd.meets_edge,
        meets_rho=vd.meets_spectral,
        is_extremal=vd.is_extremal,
        oracle=res.status,
        cost_candidates=res.search_cost,
    )
    return row, vd, res
