"""The four seeded workloads of the evenfactor benchmark.

Each workload turns a seed into a corpus of plain data: the only thing the
program receives.  `prepare` converts it (untimed), `run` pushes one fixed
batch through the public API, timing every call on the given
`refclock.RefClock`, and `check` proves the batch's outputs correct.  All
API calls go through module attributes, so the tracer's wrappers see them,
and all use default arguments: no `jobs`, `max_dim` or `max_candidates`.

Corpora are made with the standard library's generator and a local graph6
encoder rather than the package's samplers and writer, so a change to the
program cannot change its own inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass

from evenfactor import cli, factor, graph6, graphs, harness, identities, spectral, thresholds

NAIVE_MAX_EDGES = 24


@dataclass
class Batch:
    output: object
    items: int


@dataclass
class CheckResult:
    """Outcome of checking one batch."""

    attempted: int
    failed: int
    mismatches: list[str]


# --- shared corpus helpers -----------------------------------------------------


def _graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 string of a graph with n <= 62 vertices."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


def _edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _edge_floor(n: int, delta: int) -> int:
    # the size route's threshold C(n-delta+1, 2) + delta*(delta-1)
    m = n - delta + 1
    return m * (m - 1) // 2 + delta * (delta - 1)


def _connected_min_degree(n: int, edges, delta: int) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if min(len(a) for a in adj) < delta:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def near_threshold_edges(n: int, delta: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected graph with minimum degree >= delta and at least the
    size-route edge count, drawn like the soundness sampler: K_n minus a
    uniform number of uniformly chosen edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    budget = len(pairs) - _edge_floor(n, delta)
    while True:
        missing = set(rng.sample(range(len(pairs)), rng.randrange(budget + 1)))
        edges = [p for i, p in enumerate(pairs) if i not in missing]
        if _connected_min_degree(n, edges, delta):
            return edges


def _check_oracle(g, res, mismatches: list[str], label: str, naive_memo: dict) -> None:
    """Certificate verification, plus the naive oracle on small not_exists."""
    if res.status == factor.EXISTS:
        if not factor.verify_even_factor(g, res.certificate):
            mismatches.append(f"{label}: certificate fails verification")
    elif res.status == factor.NOT_EXISTS and g.edge_count <= NAIVE_MAX_EDGES:
        key = (g.n, g.adj)
        if key not in naive_memo:
            naive_memo[key] = factor.has_even_factor_naive(g).status
        if naive_memo[key] != factor.NOT_EXISTS:
            mismatches.append(f"{label}: naive oracle finds an even factor")


# --- soundness -------------------------------------------------------------------


class Soundness:
    """The acceptance soundness campaigns (n in {8, 10}, delta = 2, 500
    samples per n, for which=edges and then which=spectral), each run as ten
    sweeps of 50 samples per n whose seeds come from the workload seed.  Short
    calls give the latency percentiles 20 samples a batch and let the
    reference clock follow the host."""

    name = "soundness"

    def corpus(self, seed: int, small: bool = False) -> list[dict]:
        rng = random.Random(f"soundness:{seed}")
        chunks, samples = (1, 5) if small else (10, 50)
        return [
            {"which": which, "ns": [8, 10], "delta": 2, "samples": samples,
             "seed": rng.getrandbits(32)}
            for which in ("edges", "spectral")
            for _ in range(chunks)
        ]

    def prepare(self, corpus):
        return corpus

    def run(self, prepared, clock) -> Batch:
        reports = [
            clock.call(harness.soundness_sweep, ns=c["ns"], delta=c["delta"],
                       samples=c["samples"], seed=c["seed"], which=c["which"])
            for c in prepared
        ]
        decided = sum(1 for rep in reports for row in rep.rows if row["oracle"] != factor.UNKNOWN)
        return Batch(reports, decided)

    def canonical(self, output):
        return [
            (rep.campaign, rep.findings, len(rep.counterexamples),
             [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in rep.rows])
            for rep in output
        ]

    def check(self, corpus, prepared, output) -> CheckResult:
        attempted = failed = 0
        mismatches: list[str] = []
        naive_memo: dict = {}
        for c, rep in zip(corpus, output):
            sampler_failures = rep.findings["sampler_failures"]
            attempted += len(rep.rows) + sampler_failures
            failed += sampler_failures + rep.findings["unknown_rows"]
            if len(rep.rows) + sampler_failures != c["samples"] * len(c["ns"]):
                mismatches.append(f"{rep.campaign}: row count")
            if rep.counterexamples:
                failed += len(rep.counterexamples)
                mismatches.append(f"{rep.campaign}: {len(rep.counterexamples)} counterexamples")
            for row in rep.rows:
                label = f"{rep.campaign} row {row['row_id']}"
                g = graph6.parse_graph6(row["graph6"])
                res = factor.has_even_factor(g)
                if (res.status, res.search_cost) != (row["oracle"], row["cost_candidates"]):
                    mismatches.append(f"{label}: oracle rerun disagrees with the row")
                if g.edge_count != row["e"]:
                    mismatches.append(f"{label}: edge count")
                _check_oracle(g, res, mismatches, label, naive_memo)
        return CheckResult(attempted, failed, mismatches)


# --- oracle_hard -----------------------------------------------------------------

# (q, k, r, copies): H = K_q minus r random edges, k degree-2 vertices on the
# core a, b.  Odd k has no even factor (b's forced degree is odd); even k has
# one (4-cycles through a and b plus a Hamiltonian cycle of H, which Dirac's
# theorem gives while r <= q/2 - 1).  The tiers are sized so that a batch's
# median falls inside the block of 24 identical q=8 instances, its 90th
# percentile inside the 12 identical q=9 ones and its 99th inside the two
# q=10 ones.
HARD_TIERS = [
    # full scans, pre-pass hits and small meet-in-the-middle passes
    *[(4, k, r, 1) for k in (2, 3, 4, 5) for r in (0, 1)],
    *[(5, k, r, 1) for k in (2, 3, 4) for r in (0, 1)],
    *[(q, k, r, 1) for q in (6, 7, 8, 9, 10) for k in (2, 4) for r in (0, 1)],
    (6, 3, 0, 1),
    # median block
    (8, 3, 2, 24),
    (8, 3, 0, 3),
    (8, 3, 1, 3),
    *[(8, 5, r, 3) for r in (0, 1, 2)],
    # 90th-percentile block
    (9, 3, 2, 12),
    # tail: d = 31, 31, then the 99th-percentile block at d = 37
    (9, 3, 0, 1),
    (9, 5, 2, 1),
    (10, 3, 2, 2),
]

SMALL_HARD_TIERS = [(4, 2, 0, 1), (4, 3, 1, 1), (5, 3, 0, 1), (6, 2, 1, 1), (6, 3, 0, 1)]


def gadget_edges(q: int, k: int, r: int, rng: random.Random) -> tuple[int, list]:
    """Core a=0, b=1; k vertices adjacent to exactly a and b; K_q minus r
    random edges, joined to a by two edges at random vertices."""
    h0 = 2 + k
    edges = [(c, 2 + i) for i in range(k) for c in (0, 1)]
    pairs = [(h0 + u, h0 + v) for u in range(q) for v in range(u + 1, q)]
    missing = set(rng.sample(range(len(pairs)), r))
    edges += [p for i, p in enumerate(pairs) if i not in missing]
    edges += [(0, h0 + x) for x in sorted(rng.sample(range(q), 2))]
    return h0 + q, edges


class OracleHard:
    """Gadgets that defeat the pre-pass and reach the exhaustive phases."""

    name = "oracle_hard"

    def corpus(self, seed: int, small: bool = False) -> list[dict]:
        rng = random.Random(f"oracle_hard:{seed}")
        out = []
        for q, k, r, copies in SMALL_HARD_TIERS if small else HARD_TIERS:
            for _ in range(copies):
                n, edges = gadget_edges(q, k, r, rng)
                expect = factor.NOT_EXISTS if k % 2 else factor.EXISTS
                out.append({"q": q, "k": k, "r": r, "n": n, "edges": edges, "expect": expect})
        rng.shuffle(out)
        return out

    def prepare(self, corpus):
        return [graphs.Graph.from_edges(c["n"], c["edges"]) for c in corpus]

    def run(self, prepared, clock) -> Batch:
        results = [clock.call(factor.has_even_factor, g) for g in prepared]
        decided = sum(1 for res in results if res.status != factor.UNKNOWN)
        return Batch(results, decided)

    def canonical(self, output):
        return output

    def check(self, corpus, prepared, output) -> CheckResult:
        mismatches: list[str] = []
        naive_memo: dict = {}
        failed = 0
        for i, (c, g, res) in enumerate(zip(corpus, prepared, output)):
            label = f"gadget {i} (q={c['q']}, k={c['k']}, r={c['r']})"
            if res.status == factor.UNKNOWN:
                failed += 1
                continue
            if res.status != c["expect"]:
                failed += 1
                mismatches.append(f"{label}: {res.status}, expected {c['expect']}")
            _check_oracle(g, res, mismatches, label, naive_memo)
        return CheckResult(len(corpus), failed, mismatches)


# --- proof_grid --------------------------------------------------------------------


class ProofGrid:
    """The identity grid and the merge-lemma sweep.  Both are exhaustive over
    fixed parameter ranges, so the corpus is the same for every seed."""

    name = "proof_grid"

    def corpus(self, seed: int, small: bool = False) -> list[dict]:
        if small:
            return [{"call": "identity_grid", "delta_max": 3, "n_extra": 2},
                    {"call": "lemma_merge", "max_n": 8, "max_s": 2, "ps": [1]}]
        return [{"call": "identity_grid", "delta_max": 8, "n_extra": 20},
                {"call": "lemma_merge", "max_n": 14, "max_s": 4, "ps": [1, 2]}]

    def prepare(self, corpus):
        return corpus

    def run(self, prepared, clock) -> Batch:
        grid_args, lemma_args = prepared
        grid = clock.call(identities.run_identity_grid, grid_args["delta_max"],
                          grid_args["n_extra"])
        lemma = clock.call(harness.lemma_merge_sweep, lemma_args["max_n"], lemma_args["max_s"],
                           lemma_args["ps"])
        return Batch((grid, lemma), len(grid) + len(lemma.rows))

    def canonical(self, output):
        grid, lemma = output
        return grid, lemma.rows, lemma.findings

    def check(self, corpus, prepared, output) -> CheckResult:
        grid, lemma = output
        mismatches: list[str] = []
        failures = identities.grid_failures(grid)
        if failures:
            mismatches.append(f"identity grid: {len(failures)} failures, first {failures[0].name}")
        if lemma.counterexamples:
            mismatches.append(f"lemma sweep: {len(lemma.counterexamples)} counterexamples")
        if lemma.findings["instances"] != len(lemma.rows):
            mismatches.append("lemma sweep: row count")
        failed = len(failures) + len(lemma.counterexamples)
        return CheckResult(len(grid) + len(lemma.rows), failed, mismatches)


# --- cli_requests ------------------------------------------------------------------

# requests per kind in one batch; graphs are near-threshold draws at these orders
CLI_KINDS = {
    "verdict": (400, (8, 10, 12)),
    "even_factor": (400, (8, 10)),  # d > 40 at n = 12 is beyond the default cap
    "condition": (400, (8, 10, 12)),
    "spectral": (400, (8, 10, 12)),
    "threshold": (400, (8, 10, 12, 14, 16, 18, 20)),
}
CLI_ARGV = {
    "verdict": ["verdict"],
    "even_factor": ["check", "even-factor"],
    "condition": ["check", "condition"],
    "spectral": ["spectral"],
}
THRESHOLD_FLAGS = ([], ["--edges"], ["--rho"])


class CliRequests:
    """A closed loop: one client sends the next request when the last one
    returns, calling `evenfactor.cli.main` in-process."""

    name = "cli_requests"

    def corpus(self, seed: int, small: bool = False) -> list[dict]:
        rng = random.Random(f"cli_requests:{seed}")
        out = []
        for kind, (count, orders) in CLI_KINDS.items():
            for i in range(4 if small else count):
                n = orders[i % len(orders)]
                delta = 2 + i // len(orders) % 2
                if kind == "threshold":
                    flags = THRESHOLD_FLAGS[i % len(THRESHOLD_FLAGS)]
                    argv = ["threshold", "--n", str(n), "--delta", str(delta), *flags]
                    out.append({"kind": kind, "argv": argv, "stdin": "", "n": n, "delta": delta})
                    continue
                edges = near_threshold_edges(n, delta, rng)
                if i // (2 * len(orders)) % 2:
                    argv, stdin = CLI_ARGV[kind], _edge_list_text(n, edges)
                else:
                    argv, stdin = [*CLI_ARGV[kind], "--graph6", _graph6(n, edges)], ""
                out.append({"kind": kind, "argv": argv, "stdin": stdin, "n": n, "edges": edges})
        rng.shuffle(out)
        return out

    def prepare(self, corpus):
        return [(c["argv"], c["stdin"]) for c in corpus]

    def run(self, prepared, clock) -> Batch:
        responses = []
        stdin = sys.stdin
        try:
            for argv, text in prepared:
                out, err = io.StringIO(), io.StringIO()
                sys.stdin = io.StringIO(text)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = clock.call(cli.main, list(argv))
                responses.append((code, out.getvalue(), err.getvalue()))
        finally:
            sys.stdin = stdin
        return Batch(responses, len(responses))

    def canonical(self, output):
        return output

    def check(self, corpus, prepared, output) -> CheckResult:
        mismatches: list[str] = []
        failed = 0
        for i, (c, (code, out, err)) in enumerate(zip(corpus, output)):
            want_code, want_out = expected_cli_response(c)
            if code != want_code or want_code != cli.EXIT_OK:
                failed += 1
            if (code, out) != (want_code, want_out):
                mismatches.append(f"request {i} {c['argv'][:2]}: exit {code}, stderr {err!r}")
        return CheckResult(len(corpus), failed, mismatches)


def expected_cli_response(c: dict) -> tuple[int, str]:
    """Exit code and stdout the CLI owes for a request, from the API."""
    if c["kind"] == "threshold":
        n, delta, flags = c["n"], c["delta"], c["argv"][5:]
        e_thr = thresholds.edge_threshold(n, delta)
        rho_thr = thresholds.spectral_threshold(n, delta)
        if flags == ["--edges"]:
            return cli.EXIT_OK, f"{e_thr}\n"
        if flags == ["--rho"]:
            return cli.EXIT_OK, f"{rho_thr:.10f}\n"
        return cli.EXIT_OK, f"edges {e_thr}\nrho {rho_thr:.10f}\n"
    g = graphs.Graph.from_edges(c["n"], c["edges"])
    if c["kind"] == "verdict":
        return cli.EXIT_OK, json.dumps(thresholds.verdict(g).to_json_dict()) + "\n"
    if c["kind"] == "even_factor":
        res = factor.has_even_factor(g)
        lines = [res.status, f"cost {res.search_cost}"]
        lines += [f"{u} {v}" for u, v in res.certificate or ()]
        code = cli.EXIT_CAPPED if res.status == factor.UNKNOWN else cli.EXIT_OK
        return code, "".join(line + "\n" for line in lines)
    if c["kind"] == "condition":
        rep = factor.check_yan_kano_condition(g)
        if rep.holds:
            return cli.EXIT_OK, "holds\n"
        witness = ",".join(str(v) for v in rep.witness)
        return cli.EXIT_OK, f"violated S={witness} odd_components={rep.witness_odd_components}\n"
    res = spectral.spectral_radius(g)
    return cli.EXIT_OK, (f"rho {res.rho:.12f}\niterations {res.iterations}\n"
                         f"residual {res.residual:.3e}\n")


WORKLOADS = {w.name: w for w in (Soundness(), OracleHard(), ProofGrid(), CliRequests())}


def corpus_bytes(corpus) -> bytes:
    return json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode()
