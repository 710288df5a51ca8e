import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from evenfactor import harness, thresholds
from evenfactor.factor import EXISTS
from evenfactor.graph6 import parse_graph6, write_graph6
from evenfactor.graphs import FamilySpec, build_family, merged_family
from evenfactor.harness import (
    CSV_COLUMNS,
    csv_lines,
    lemma_merge_sweep,
    soundness_sweep,
    tightness_report,
)


# test ids of the pinned soundness cases, route and orders; the digests stay
# out of the ids, so a re-pin keeps each test's name
SOUNDNESS_CASES = ["edges-8,10", "edges-14", "spectral-8,10", "spectral-14"]


def rows_without_timing(report):
    return [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in report.rows]


def digest(obj) -> str:
    # floats serialise as their shortest round-trip repr, so every bit counts
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def csv_digest(report) -> str:
    # the CSV text a user sees, columns 1-15 as `cut -d, -f1-15` gives them:
    # floats at print precision, elapsed_ms dropped
    text = "".join(",".join(line.split(",")[:15]) + "\n" for line in csv_lines(report))
    return hashlib.sha256(text.encode()).hexdigest()


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
            "3e1c3a66dcb8832dac87a65b551afa955b6bd8b563c13ae4fd5e03e6ab96ed64"
        )

    def test_csv_text_is_pinned(self):
        # what `verify lemmas --max-n 14 --max-s 4 --p 1,2` writes; a change
        # to the radii below print precision must not move it
        rep = lemma_merge_sweep(14, 4, [1, 2])
        assert csv_digest(rep) == (
            "100686cf9b90c7a2a74c5acd52785ecb9bb41809806f799f332f639951c31425"
        )

    def test_printed_bytes_are_pinned(self):
        # every byte `verify lemmas --max-n 14 --max-s 4 --p 1,2` prints on
        # stdout, all columns; test_cli.py::test_verify_lemmas compares the
        # command's own stdout with it
        rep = lemma_merge_sweep(14, 4, [1, 2])
        text = "".join(line + "\n" for line in csv_lines(rep))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6032d7224b294bf6f0ae0b595750d39d14229520fe3d0660c4ca4e5a245a8e77"
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

    @pytest.mark.parametrize("which", ["edges", "spectral"])
    def test_oracle_runs_once_per_distinct_draw(self, monkeypatch, which):
        # K_n minus a few random edges comes up again and again; each distinct
        # graph is decided once, and its repeats copy that outcome.  The
        # oracle's i-th call takes i ms on a fake clock, so a repeat that
        # reran the oracle would show a new elapsed_ms
        calls = Counter()
        clock = [0.0]
        real = harness.has_even_factor

        def spy(g):
            calls[write_graph6(g)] += 1
            clock[0] += (calls.total() + 0.5) / 1000
            return real(g)

        monkeypatch.setattr(harness, "has_even_factor", spy)
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        rep = soundness_sweep(ns=[8, 10], delta=2, samples=100, seed=11, which=which)
        cells = [row["graph6"] for row in rep.rows]
        distinct = list(dict.fromkeys(cells))
        assert len(distinct) < len(cells)
        assert calls == Counter(distinct)
        assert rep.findings["distinct_graphs"] == len(distinct)
        first = {}
        for row in rep.rows:
            seen = first.setdefault(row["graph6"], row)
            for col in ("oracle", "cost_candidates", "elapsed_ms"):
                assert row[col] == seen[col]
        assert [row["elapsed_ms"] for row in first.values()] == list(
            range(1, len(distinct) + 1)
        )

    @pytest.mark.parametrize(
        "which, ns, delta, expected",
        [
            ("edges", [8, 10], 2, "1f155d921e3719cad5450dd0db9560aa2cfa254c2e8181967c35336286419f98"),
            ("edges", [14], 3, "3a36eeb3cd4d313ae27de873e6a97bcb2366742cd65f3e0259c832c61fa21cca"),
            ("spectral", [8, 10], 2, "6f73612f58d007b48712c698a7ce1e72bc49fa87ae37424762b88b21bc87c904"),
            ("spectral", [14], 3, "afa694d37b8bcff0a48f6cb16a3c79fa36f91de1d86184ba549717bdae17e04d"),
        ],
        ids=SOUNDNESS_CASES,
    )
    def test_rows_are_pinned(self, which, ns, delta, expected):
        # every column but elapsed_ms, rho to the last bit
        rep = soundness_sweep(ns=ns, delta=delta, samples=100, seed=11, which=which)
        assert len(rep.rows) == 100 * len(ns)
        assert digest(rows_without_timing(rep)) == expected

    @pytest.mark.parametrize(
        "which, expected",
        [
            ("edges", "00341c43fa843102e5830477d7432c7eb6a75f0917a6a53384cb129f467f6bf8"),
            ("spectral", "e68b8c330b3f246edad86aa349fc602efc2054413b1736f7ea1bd6a698d32c07"),
        ],
        ids=["edges", "spectral"],
    )
    def test_rows_at_a_large_kernel_are_pinned(self, which, expected):
        # at (32, 6) every cycle space has dimension at least 400, and each
        # row is decided by the odd-degree matching
        rep = soundness_sweep(ns=[32], delta=6, samples=50, seed=7, which=which)
        assert len(rep.rows) == 50
        assert digest(rows_without_timing(rep)) == expected

    @pytest.mark.parametrize(
        "which, ns, delta, expected",
        [
            ("edges", [8, 10], 2, "272dc45464c57bd3f63ac5e0e2cd009bd12dd3a1581449db2d0d74201d731e4d"),
            ("edges", [14], 3, "a6cc2b7248b8d98585b7296ccbfcc991bc0d567edaed0ea0bc572abe46515329"),
            ("spectral", [8, 10], 2, "6a54a38d0fdc10fce4b293de3747aa1ba922059d46c197a47725203477e65f03"),
            ("spectral", [14], 3, "4ccb1cc0d8c1f702b62601278492042b87154af26dd34446aaf9d34a10c28663"),
        ],
        ids=SOUNDNESS_CASES,
    )
    def test_csv_text_is_pinned(self, which, ns, delta, expected):
        # the rows of test_rows_are_pinned as CSV text; a change to the radii
        # below print precision must not move it
        rep = soundness_sweep(ns=ns, delta=delta, samples=100, seed=11, which=which)
        assert csv_digest(rep) == expected

    @pytest.mark.parametrize(
        "budget, which, ns, delta, failures, expected",
        [
            # every edge-route draw passes the filter here, so its rows equal
            # the budget-500 pins
            (1, "edges", [8, 10], 2, 0, "1f155d921e3719cad5450dd0db9560aa2cfa254c2e8181967c35336286419f98"),
            (1, "edges", [14], 3, 0, "3a36eeb3cd4d313ae27de873e6a97bcb2366742cd65f3e0259c832c61fa21cca"),
            (1, "spectral", [8, 10], 2, 52, "5aa313ddd15e25df82dc6816263c27934bcd77065bf9aea1fc70a3710a961fec"),
            (1, "spectral", [14], 3, 29, "51f7bff28546e2da08ab0cbdd2b6424c64499aec5e9e79bb7a21a2607de752f4"),
            (2, "edges", [8, 10], 2, 0, "1f155d921e3719cad5450dd0db9560aa2cfa254c2e8181967c35336286419f98"),
            (2, "edges", [14], 3, 0, "3a36eeb3cd4d313ae27de873e6a97bcb2366742cd65f3e0259c832c61fa21cca"),
            (2, "spectral", [8, 10], 2, 10, "819f8b295924babdab8209747f7decf1bcddbb69d4bc30da519bd414be26b21a"),
            (2, "spectral", [14], 3, 7, "2d403b70bb3a7c76cbcec139164ed6441c997203466a19279817de921793d1cd"),
        ],
        ids=[f"budget{b}-{case}" for b in (1, 2) for case in SOUNDNESS_CASES],
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
        # one spectral_radii call per sampling round, not one radius call
        # per draw: each round draws one graph per sample still open and
        # sends the draws not seen before that pass the filter
        calls = []
        real = harness.spectral_radii
        drawn = {}
        real_sample = harness.complete_minus_random_edges

        def counting(graphs):
            graphs = list(graphs)
            calls.append((graphs[0].n, len(graphs)))
            return real(graphs)

        def sampling(n, k, rng):
            g = real_sample(n, k, rng)
            drawn[g.adj] = g
            return g

        monkeypatch.setattr(harness, "spectral_radii", counting)
        monkeypatch.setattr(harness, "complete_minus_random_edges", sampling)
        rep = soundness_sweep(ns=[8, 10], delta=2, samples=100, seed=11, which="spectral")
        assert not hasattr(harness, "spectral_radius")
        for n in (8, 10):
            assert sum(1 for m, _ in calls if m == n) < 25
        assert calls == [
            (8, 84), (8, 16), (8, 3), (8, 1),
            (10, 80), (10, 27), (10, 4), (10, 1), (10, 1),
        ]
        passing = [g for g in drawn.values() if g.min_degree() >= 2 and g.is_connected()]
        assert sum(size for _, size in calls) == len(passing)
        assert len(rep.rows) == 200

    @pytest.mark.parametrize("which", ["edges", "spectral"])
    def test_each_distinct_graph_is_encoded_recognised_and_solved_once(self, monkeypatch, which):
        # a repeated draw reuses its first occurrence's radius and, once a
        # sample has accepted the graph, its graph6 cell and extremal flag
        drawn, solved, encoded, recognised = [], Counter(), Counter(), Counter()
        real_sample = harness.complete_minus_random_edges
        real_radii = harness.spectral_radii
        real_encode = harness.write_graph6
        real_recognise = harness.recognize_extremal

        def sampling(n, k, rng):
            g = real_sample(n, k, rng)
            drawn.append(g.adj)
            return g

        def radii(graphs):
            graphs = list(graphs)
            solved.update(g.adj for g in graphs)
            return real_radii(graphs)

        def encode(g):
            encoded[g.adj] += 1
            return real_encode(g)

        def recognise(g):
            recognised[g.adj] += 1
            return real_recognise(g)

        monkeypatch.setattr(harness, "complete_minus_random_edges", sampling)
        monkeypatch.setattr(harness, "spectral_radii", radii)
        monkeypatch.setattr(harness, "write_graph6", encode)
        monkeypatch.setattr(harness, "recognize_extremal", recognise)
        rep = soundness_sweep(ns=[8, 10], delta=2, samples=100, seed=11, which=which)
        rows = [parse_graph6(row["graph6"]).adj for row in rep.rows]
        assert len(set(drawn)) < len(drawn) == rep.findings["draws"]
        assert len(set(rows)) == rep.findings["distinct_graphs"] < len(rows)
        assert set(solved) >= set(rows)
        assert max(solved.values()) == 1
        assert encoded == recognised == Counter(set(rows))

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

    @pytest.mark.parametrize(
        "n, delta, want",
        [
            (8, 2, "6d19d4a33756396d867ce1080faef36c9ab05cb9b317bdbef8c86fe7c3f9f9a8"),
            (10, 2, "03ea1e8da599914bbf4d9b126bb2bee94c80d6bf57a9db144881fcfd66fda065"),
            (14, 3, "d8d6f7dd6587b9f0e1dadc24a8acd0627ff7177ceee9273ca43f852689296e31"),
            (20, 4, "755c8f0990eaea690fb6ed064f54f691fe44bc348cfb005c98959b10144e54fb"),
        ],
        ids=["8-2", "10-2", "14-3", "20-4"],
    )
    def test_json_is_pinned(self, n, delta, want):
        # the bytes `report tightness --out` writes, condition witness included
        text = json.dumps(tightness_report(n, delta).to_json_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_json_roundtrips(self):
        rep = tightness_report(8, 2)
        blob = json.loads(json.dumps(rep.to_json_dict()))
        assert blob["campaign"] == "tightness"
        assert blob["findings"]["extremal_oracle_finding"]["status"] == "exists"
