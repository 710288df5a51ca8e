"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces the public entry points of each evenfactor module with
timing wrappers, in every evenfactor module namespace that binds them, and
puts the originals back on `uninstall`.  Each call records a span: its
layer name, start, end and the span that was open when it began.  A layer's
self time is the duration of its spans minus the part covered by their
child spans, so the layer times of one batch add up without double counting.

Exact counts (`factor.search_cost`, `spectral.iterations`, oracle statuses,
CLI exit codes, sweep rows) are read off the return values at the same
boundaries.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name); attribute "Graph.__init__" wraps the class
ENTRY_POINTS = [
    ("graphs", "Graph.__init__", "graphs.construct"),
    ("graph6", "parse_graph6", "graph6.parse"),
    ("graph6", "write_graph6", "graph6.write"),
    ("graph6", "parse_edge_list", "graph6.edgelist_parse"),
    ("factor", "has_even_factor", "factor.oracle"),
    ("factor", "check_yan_kano_condition", "factor.condition"),
    ("spectral", "spectral_radius", "spectral.radius"),
    ("spectral", "largest_real_root", "spectral.root"),
    ("thresholds", "verdict", "thresholds.verdict"),
    ("thresholds", "edge_threshold", "thresholds.threshold"),
    ("thresholds", "spectral_threshold", "thresholds.threshold"),
    ("identities", "run_identity_grid", "identities.grid"),
    ("harness", "soundness_sweep", "harness.soundness"),
    ("harness", "lemma_merge_sweep", "harness.lemma"),
    ("rng", "complete_minus_random_edges", "rng.sample"),
    ("rng", "random_graph_with_edges", "rng.sample"),
    ("rng", "random_connected_graph", "rng.sample"),
    ("cli", "main", "cli.main"),
]

SPAN_NAMES = sorted({name for _, _, name in ENTRY_POINTS})

CLI_EXIT_CODES = (0, 1, 2, 3, 4)

# per-layer metrics the traced run reports, with their units
LAYER_METRICS = {
    "graphs.construct_calls": "count",
    "graphs.construct_s": "s",
    "graph6.parse_calls": "count",
    "graph6.parse_s": "s",
    "graph6.write_s": "s",
    "graph6.edgelist_parse_s": "s",
    "factor.calls": "count",
    "factor.condition_calls": "count",
    "factor.busy_s": "s",
    "factor.search_cost": "count",
    "factor.status.exists": "count",
    "factor.status.not_exists": "count",
    "factor.status.unknown": "count",
    "factor.decided_ratio": "ratio",
    "spectral.radius_calls": "count",
    "spectral.radius_s": "s",
    "spectral.iterations": "count",
    "spectral.root_calls": "count",
    "spectral.root_s": "s",
    "thresholds.verdict_calls": "count",
    "thresholds.verdict_s": "s",
    "thresholds.threshold_s": "s",
    "identities.checks": "count",
    "identities.self_s": "s",
    "harness.self_s": "s",
    "harness.rows": "count",
    "harness.draws": "count",
    "harness.accept_ratio": "ratio",
    "rng.sample_calls": "count",
    "rng.sample_s": "s",
    "cli.requests": "count",
    "cli.self_s": "s",
    **{f"cli.exit.{code}": "count" for code in CLI_EXIT_CODES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder for one traced batch at a time."""

    def __init__(self) -> None:
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patched: list[tuple[object, str, object]] = []
        self._names = array("i")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep recording."""
        for buf in (self._names, self._parents, self._starts, self._ends):
            del buf[:]
        self._stack.clear()
        self.counts.clear()

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, span: str):
        name_id = self._name_ids[span]
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack = self._stack
        on_result = _RESULT_HOOKS.get(span)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            starts[idx] = t0
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point wherever an evenfactor module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "evenfactor" or name.startswith("evenfactor.")]
        for mod_name, attr, span in ENTRY_POINTS:
            home = sys.modules[f"evenfactor.{mod_name}"]
            if attr == "Graph.__init__":
                cls = home.Graph
                self._patch(cls, "__init__", self._wrap(cls.__init__, span))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # --- summary --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name for the spans recorded since
        the last reset."""
        count = len(self._names)
        names = np.frombuffer(self._names, dtype=np.int32) if count else np.zeros(0, np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int64) if count else np.zeros(0, np.int64)
        dur = (np.frombuffer(self._ends) - np.frombuffer(self._starts)) if count else np.zeros(0)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i, name in enumerate(SPAN_NAMES)
        }

    def span_count(self) -> int:
        return len(self._names)


def _on_oracle(counts: Counter, res) -> None:
    counts[f"factor.status.{res.status}"] += 1
    counts["factor.search_cost"] += res.search_cost


def _on_radius(counts: Counter, res) -> None:
    counts["spectral.iterations"] += res.iterations


def _on_grid(counts: Counter, checks) -> None:
    counts["identities.checks"] += len(checks)


def _on_soundness(counts: Counter, report) -> None:
    counts["harness.rows"] += len(report.rows)
    counts["harness.soundness_rows"] += len(report.rows)


def _on_lemma(counts: Counter, report) -> None:
    counts["harness.rows"] += len(report.rows)


def _on_cli(counts: Counter, code) -> None:
    counts[f"cli.exit.{code}"] += 1


_RESULT_HOOKS = {
    "factor.oracle": _on_oracle,
    "spectral.radius": _on_radius,
    "identities.grid": _on_grid,
    "harness.soundness": _on_soundness,
    "harness.lemma": _on_lemma,
    "cli.main": _on_cli,
}


def layer_metrics(summary: dict, counts: Counter, scale: float) -> dict[str, float]:
    """The per-layer metrics of one traced batch; `scale` converts the span
    times to reference seconds."""
    s = {name: {"calls": v["calls"], "self_s": v["self_s"] * scale} for name, v in summary.items()}
    oracle_calls = s["factor.oracle"]["calls"]
    decided = counts["factor.status.exists"] + counts["factor.status.not_exists"]
    draws = s["rng.sample"]["calls"]
    out = {
        "graphs.construct_calls": s["graphs.construct"]["calls"],
        "graphs.construct_s": s["graphs.construct"]["self_s"],
        "graph6.parse_calls": s["graph6.parse"]["calls"],
        "graph6.parse_s": s["graph6.parse"]["self_s"],
        "graph6.write_s": s["graph6.write"]["self_s"],
        "graph6.edgelist_parse_s": s["graph6.edgelist_parse"]["self_s"],
        "factor.calls": oracle_calls,
        "factor.condition_calls": s["factor.condition"]["calls"],
        "factor.busy_s": s["factor.oracle"]["self_s"] + s["factor.condition"]["self_s"],
        "factor.search_cost": counts["factor.search_cost"],
        "factor.status.exists": counts["factor.status.exists"],
        "factor.status.not_exists": counts["factor.status.not_exists"],
        "factor.status.unknown": counts["factor.status.unknown"],
        # base: oracle calls; 0 when the workload makes none
        "factor.decided_ratio": decided / oracle_calls if oracle_calls else 0.0,
        "spectral.radius_calls": s["spectral.radius"]["calls"],
        "spectral.radius_s": s["spectral.radius"]["self_s"],
        "spectral.iterations": counts["spectral.iterations"],
        "spectral.root_calls": s["spectral.root"]["calls"],
        "spectral.root_s": s["spectral.root"]["self_s"],
        "thresholds.verdict_calls": s["thresholds.verdict"]["calls"],
        "thresholds.verdict_s": s["thresholds.verdict"]["self_s"],
        "thresholds.threshold_s": s["thresholds.threshold"]["self_s"],
        "identities.checks": counts["identities.checks"],
        "identities.self_s": s["identities.grid"]["self_s"],
        "harness.self_s": s["harness.soundness"]["self_s"] + s["harness.lemma"]["self_s"],
        "harness.rows": counts["harness.rows"],
        "harness.draws": draws,
        # base: sampler draws inside soundness sweeps; 0 when there are none
        "harness.accept_ratio": counts["harness.soundness_rows"] / draws if draws else 0.0,
        "rng.sample_calls": draws,
        "rng.sample_s": s["rng.sample"]["self_s"],
        "cli.requests": s["cli.main"]["calls"],
        "cli.self_s": s["cli.main"]["self_s"],
    }
    for code in CLI_EXIT_CODES:
        out[f"cli.exit.{code}"] = counts[f"cli.exit.{code}"]
    return out
