import concurrent.futures
import hashlib
import json

import pytest

from evenfactor import harness, thresholds
from evenfactor.factor import EXISTS
from evenfactor.graph6 import parse_graph6
from evenfactor.graphs import FamilySpec, build_family, merged_family
from evenfactor.harness import (
    CSV_COLUMNS,
    csv_lines,
    lemma_merge_sweep,
    soundness_sweep,
    tightness_report,
)


def rows_without_timing(report):
    return [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in report.rows]


def digest(obj) -> str:
    # floats serialise as their shortest round-trip repr, so every bit counts
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestLemmaMergeSweep:
    def test_worked_instance(self):
        # merging the split (4,4) into (7,1) gains edges and spectral radius
        lhs = build_family(FamilySpec(2, (4, 4)))
        rhs = build_family(merged_family(10, 2, 2, 1))
        assert lhs.edge_count == 29 and rhs.edge_count == 38
        rep = lemma_merge_sweep(10, 2, [1])
        assert rep.passed
        row = next(
            r
            for r in rep.rows
            if r["n"] == 10 and r["e"] == 29 and r["e_thr"] == 38
        )
        assert row["meets_e"] and row["meets_rho"]
        assert row["rho"] < row["rho_thr"] - 1e-9

    def test_radius_test_reads_the_shared_tolerance(self, monkeypatch):
        # the strict radius test is `not meets_spectral`: widened past the
        # smallest gap rho_merged - rho_l of this sweep (0.2147), the one
        # tolerance turns the closest rows into counterexamples
        monkeypatch.setattr(thresholds, "RHO_EQUALITY_TOL", 0.25)
        rep = lemma_merge_sweep(10, 2, [1])
        assert rep.counterexamples
        for row in rep.counterexamples:
            assert not row["meets_rho"] and row["rho_thr"] - row["rho"] <= 0.25

    def test_boundary_partition_excluded(self):
        # partitions already in merged shape never appear as rows
        rep = lemma_merge_sweep(9, 2, [1])
        for row in rep.rows:
            g = parse_graph6(row["graph6"])
            assert row["e"] < row["e_thr"]

    def test_empty_sweep_rejected(self):
        for max_n, max_s, ps in ((14, 0, [1]), (3, 4, [1]), (14, 4, [])):
            with pytest.raises(ValueError, match="no lemma instance"):
                lemma_merge_sweep(max_n, max_s, ps)

    def test_repeated_parts_count_once(self):
        once = lemma_merge_sweep(10, 2, [1])
        twice = lemma_merge_sweep(10, 2, [1, 1])
        assert once.findings["instances"] == twice.findings["instances"] == 81
        assert rows_without_timing(twice) == rows_without_timing(once)
        assert twice.params["ps"] == [1]

    def test_no_violations_small(self):
        rep = lemma_merge_sweep(12, 3, [1, 2])
        assert rep.passed
        assert rep.findings["instances"] == len(rep.rows) > 100

    def test_output_is_pinned(self):
        # every row (rho to the last bit), finding and counterexample of the
        # benchmark's lemma sweep; a change to how or in what order radii are
        # computed must not move it
        rep = lemma_merge_sweep(14, 4, [1, 2])
        assert rep.findings["instances"] == 824
        assert digest([rows_without_timing(rep), rep.findings, rep.counterexamples]) == (
            "3537c67b99a975729fd0af410e637bd49e9cea239737be83ae8599bda7414d97"
        )

    def test_rows_recompute_from_graph6(self):
        rep = lemma_merge_sweep(10, 2, [1, 2])
        for row in rep.rows:
            g = parse_graph6(row["graph6"])
            assert g.edge_count == row["e"]
            assert g.min_degree() == row["delta"]
            assert g.n == row["n"]


class TestSoundnessSweep:
    def test_edges_variant(self):
        rep = soundness_sweep(ns=[8], delta=2, samples=60, seed=42, which="edges")
        assert rep.passed
        assert len(rep.rows) + rep.findings["sampler_failures"] == 60
        for row in rep.rows:
            assert row["meets_e"] is True
            assert row["e"] >= row["e_thr"]
            if not row["is_extremal"]:
                assert row["oracle"] == EXISTS

    def test_spectral_variant(self):
        rep = soundness_sweep(ns=[8], delta=2, samples=60, seed=7, which="spectral")
        assert rep.passed
        for row in rep.rows:
            assert row["meets_rho"] is True

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match=r"which must be edges\|spectral, got .bogus."):
            soundness_sweep(ns=[8], delta=2, samples=5, seed=1, which="bogus")

    def test_deterministic_given_seed(self):
        a = soundness_sweep(ns=[8], delta=2, samples=40, seed=5, which="edges")
        b = soundness_sweep(ns=[8], delta=2, samples=40, seed=5, which="edges")
        assert rows_without_timing(a) == rows_without_timing(b)
        c = soundness_sweep(ns=[8], delta=2, samples=40, seed=6, which="edges")
        assert rows_without_timing(a) != rows_without_timing(c)

    def test_jobs_do_not_change_rows(self):
        a = soundness_sweep(ns=[8], delta=2, samples=30, seed=9, which="edges", jobs=1)
        b = soundness_sweep(ns=[8], delta=2, samples=30, seed=9, which="edges", jobs=2)
        assert rows_without_timing(a) == rows_without_timing(b)

    def test_route_hypotheses_required(self):
        # route 1.1 needs n even; route 1.2 needs n >= 7 at delta = 2
        with pytest.raises(ValueError, match="route 1.1 hypotheses unmet for n=9, delta=2"):
            soundness_sweep(ns=[8, 9], delta=2, samples=5, seed=1, which="edges")
        with pytest.raises(ValueError, match="route 1.2 hypotheses unmet for n=6, delta=2"):
            soundness_sweep(ns=[6], delta=2, samples=5, seed=1, which="spectral")

    def test_empty_sweep_rejected(self):
        for ns, samples in (([8], 0), ([8], -1), ([], 5)):
            with pytest.raises(ValueError):
                soundness_sweep(ns=ns, delta=2, samples=samples, seed=9)

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError):
                soundness_sweep(ns=[8], delta=2, samples=5, seed=9, jobs=jobs)

    @pytest.mark.parametrize(
        "jobs, cpus, samples, workers",
        [
            (64, 4, 30, 4),  # capped by the CPU count
            (64, 128, 3, 3),  # capped by the number of draws
            (3, 8, 30, 3),
            (4, None, 30, None),  # unknown CPU count: one CPU, no pool
            (2, 8, 1, None),  # one draw: no pool
        ],
    )
    def test_worker_count_is_bounded(self, monkeypatch, jobs, cpus, samples, workers):
        started = []

        class RecordingPool:
            """Records the worker count and runs the work inline; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        rep = soundness_sweep(ns=[8], delta=2, samples=samples, seed=9, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(rep.rows) == samples
        seq = soundness_sweep(ns=[8], delta=2, samples=samples, seed=9, jobs=1)
        assert rows_without_timing(rep) == rows_without_timing(seq)

    @pytest.mark.parametrize(
        "which, ns, delta, expected",
        [
            ("edges", [8, 10], 2, "2ab88a0866522aa7602c039309aeb21de136a66a98363715bf001688635bc014"),
            ("edges", [14], 3, "e065c8dc628c467b71a492591d653ca36158238b463331dc0dc28d36afd19876"),
            ("spectral", [8, 10], 2, "7632f47fbd750e81417f8b02c21f8c3e9b13d0263865be458b42690231179cab"),
            ("spectral", [14], 3, "1f730b14ac62d069d17a659e8c25492df62a970f40f5d7c1d1d7fc15ef0aab42"),
        ],
    )
    def test_rows_are_pinned(self, which, ns, delta, expected):
        # every column but elapsed_ms, rho to the last bit
        rep = soundness_sweep(ns=ns, delta=delta, samples=100, seed=11, which=which)
        assert len(rep.rows) == 100 * len(ns)
        assert digest(rows_without_timing(rep)) == expected

    @pytest.mark.parametrize(
        "budget, which, ns, delta, failures, expected",
        [
            # every edge-route draw passes the filter here, so its rows equal
            # the budget-500 pins
            (1, "edges", [8, 10], 2, 0, "2ab88a0866522aa7602c039309aeb21de136a66a98363715bf001688635bc014"),
            (1, "edges", [14], 3, 0, "e065c8dc628c467b71a492591d653ca36158238b463331dc0dc28d36afd19876"),
            (1, "spectral", [8, 10], 2, 52, "9ff9b81bd6d36eb2c7457a4ffe695b697db0d9175a7df305da861be38ec5839a"),
            (1, "spectral", [14], 3, 29, "522c2ec74711e934957f238db8bb9315e2048ace6a5662e5a2eb7fabb8f8d5d9"),
            (2, "edges", [8, 10], 2, 0, "2ab88a0866522aa7602c039309aeb21de136a66a98363715bf001688635bc014"),
            (2, "edges", [14], 3, 0, "e065c8dc628c467b71a492591d653ca36158238b463331dc0dc28d36afd19876"),
            (2, "spectral", [8, 10], 2, 10, "a50c3e7a3f1a4bb546d2826b8bea9e87a361e48af91ab15702faaad3dbc37ea2"),
            (2, "spectral", [14], 3, 7, "119a7ce34ffa31958d06f2ca9b2e343d33e33067618e7146ca333654623a67f0"),
        ],
    )
    def test_sampler_failures_are_pinned(
        self, monkeypatch, budget, which, ns, delta, failures, expected
    ):
        # a tiny retry budget forces the give-up path; the draws a failed
        # sample used must not shift the stream of the samples after it
        monkeypatch.setattr(harness, "RETRY_BUDGET", budget)
        rep = soundness_sweep(ns=ns, delta=delta, samples=100, seed=11, which=which)
        assert rep.findings["sampler_failures"] == failures
        assert len(rep.rows) + failures == 100 * len(ns)
        assert digest(rows_without_timing(rep)) == expected

    def test_spectral_route_batches_its_radii(self, monkeypatch):
        # one spectral_radii call per sampling round, not one power iteration
        # per draw: each round draws one graph per sample still open
        calls = []
        real = harness.spectral_radii

        def counting(graphs):
            graphs = list(graphs)
            calls.append((graphs[0].n, len(graphs)))
            return real(graphs)

        monkeypatch.setattr(harness, "spectral_radii", counting)
        rep = soundness_sweep(ns=[8, 10], delta=2, samples=100, seed=11, which="spectral")
        assert not hasattr(harness, "spectral_radius")
        for n in (8, 10):
            assert sum(1 for m, _ in calls if m == n) < 25
        assert calls == [
            (8, 100), (8, 23), (8, 5), (8, 1),
            (10, 100), (10, 31), (10, 6), (10, 1), (10, 1),
        ]
        assert len(rep.rows) == 200 <= sum(size for _, size in calls)

    def test_rows_recompute_from_graph6(self):
        rep = soundness_sweep(ns=[8], delta=2, samples=40, seed=3, which="edges")
        for row in rep.rows:
            assert parse_graph6(row["graph6"]).edge_count == row["e"]

    def test_csv_schema(self):
        rep = soundness_sweep(ns=[8], delta=2, samples=10, seed=1, which="edges")
        lines = list(csv_lines(rep))
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rep.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "soundness_edges"
        assert first[2] == "0"


class TestTightnessReport:
    def test_8_2(self):
        rep = tightness_report(8, 2)
        assert rep.passed
        checks = rep.findings["checks"]
        assert all(checks.values())
        assert rep.findings["condition_witness"] == [0, 1]
        assert rep.findings["condition_witness_odd_components"] == 2
        finding = rep.findings["extremal_oracle_finding"]
        assert finding["status"] in ("exists", "not_exists", "unknown")
        assert len(rep.rows) == 1 + 5  # the extremal graph plus 5 supergraphs

    def test_10_2(self):
        rep = tightness_report(10, 2)
        assert rep.passed
        assert len(rep.rows) == 1 + 7

    def test_refusal_out_of_range(self):
        with pytest.raises(ValueError, match="hypotheses unmet"):
            tightness_report(6, 3)

    def test_json_roundtrips(self):
        rep = tightness_report(8, 2)
        blob = json.loads(json.dumps(rep.to_json_dict()))
        assert blob["campaign"] == "tightness"
        assert blob["findings"]["extremal_oracle_finding"]["status"] == "exists"
