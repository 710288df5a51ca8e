"""Benchmark of the evenfactor package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The run
makes the workload's corpus from the seed, warms up on a tiny corpus, then
repeats the workload's fixed batch until S seconds of batches have run, and
checks every batch's outputs.  Times are reference seconds (see refclock.py).
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see BENCHMARK.json).
With --trace 1 the run spends half its time untraced and half traced, and
reports the per-layer metrics of the traced batches plus the tracing
overhead.  The line before it records provenance.  A run whose outputs fail
a check prints "correct": false and exits with status 1; a checkout without
the package's source exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

from refclock import RefClock
from tracer import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# end-to-end runs make at least two batches, so that every run has the same
# percentile positions and the same batch outputs alive at its memory peak
MIN_BATCHES = 2
LATENCY_PERCENTILES = (50, 90, 99)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    pos = p / 100 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def batch_percentile(batches: list[list[float]], p: float) -> float:
    """Median over batches of each batch's percentile: a noisy call in one
    batch cannot move a tail percentile."""
    return statistics.median(percentile(b, p) for b in batches)


def measure_setup() -> tuple[float, float]:
    """Median time, reference and raw, for a fresh interpreter to import the
    CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with RefClock(waits=True) as clock:
        for _ in range(SETUP_REPEATS):
            clock.call(subprocess.run, [sys.executable, "-c", "import evenfactor.cli"],
                       cwd=ROOT, env=env, check=True, timeout=60, capture_output=True)
    raw, ref = clock.durations()
    return statistics.median(ref), statistics.median(raw)


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "evenfactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """Repeated batches of one workload; every batch's output must equal the
    first's, which `check` then proves correct."""

    def __init__(self, wl, corpus):
        self.wl = wl
        self.corpus = corpus
        self.prepared = wl.prepare(corpus)
        self.first = None
        self.first_canonical = None
        self.batches = 0
        self.differing_batches = 0
        self.items = 0

    def measure(self, seconds: float, min_batches: int = 1, tracer: Tracer | None = None):
        """Run at least `min_batches` batches, then stop within half a batch
        of `seconds` of wall time in calls.  Returns each batch's reference
        and raw time, each batch's list of call times, reference and raw,
        and, when traced, each batch's layer metrics."""
        walls, raw_walls, latencies, raw_latencies, layers = [], [], [], [], []
        if tracer is not None:
            tracer.install()
        try:
            while len(walls) < min_batches or sum(raw_walls) + raw_walls[-1] / 2 < seconds:
                if tracer is not None:
                    tracer.reset()
                with RefClock() as clock:
                    batch = self.wl.run(self.prepared, clock)
                raw, ref = clock.durations()
                walls.append(sum(ref))
                raw_walls.append(sum(raw))
                latencies.append(ref)
                raw_latencies.append(raw)
                if tracer is not None:
                    scale = sum(ref) / clock.elapsed()
                    layer = layer_metrics(tracer.summary(), tracer.counts, scale)
                    layer["trace.spans"] = tracer.span_count()
                    layers.append(layer)
                self._compare(batch)
                # only the first batch's output stays alive into the next one
                batch = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        return walls, raw_walls, latencies, raw_latencies, layers

    def _compare(self, batch) -> None:
        self.batches += 1
        self.items = batch.items
        canonical = self.wl.canonical(batch.output)
        if self.first is None:
            self.first, self.first_canonical = batch.output, canonical
        elif canonical != self.first_canonical:
            self.differing_batches += 1


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and run details."""
    # warm-up on the tiny corpus, untimed and unchecked
    with RefClock() as clock:
        wl.run(wl.prepare(wl.corpus(seed, small=True)), clock)

    run = Run(wl, wl.corpus(seed, small=small))
    prov: dict = {}
    mismatches: list[str] = []
    if trace:
        plain_walls, *_ = run.measure(seconds / 2)
        walls, *_, layers = run.measure(seconds / 2, tracer=Tracer())
        metrics = traced_metrics(layers, walls, plain_walls)
        counts = [{k: v for k, v in layer.items() if LAYER_METRICS[k] != "s"} for layer in layers]
        if any(c != counts[0] for c in counts):
            mismatches.append("layer counts differ between traced batches")
        prov["batches"] = {"untraced": len(plain_walls), "traced": len(walls)}
    else:
        setup_s, raw_setup_s = measure_setup()
        walls, raw_walls, latencies, raw_latencies, _ = run.measure(seconds, MIN_BATCHES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = statistics.median(walls)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (run.items / wall, "1/s"),
            **{f"latency_p{p}_ms": (batch_percentile(latencies, p) * 1000, "ms")
               for p in LATENCY_PERCENTILES},
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        prov.update({
            "batches": len(walls),
            "items_per_batch": run.items,
            "latency_samples_per_batch": len(latencies[0]),
            "setup_repeats": SETUP_REPEATS,
            "raw_setup_s": raw_setup_s,
            "raw_wall_s": statistics.median(raw_walls),
            "raw_latency_p50_ms": batch_percentile(raw_latencies, 50) * 1000,
        })
    checked = wl.check(run.corpus, run.prepared, run.first)
    attempted = checked.attempted * run.batches
    failed = checked.failed * run.batches
    mismatches += checked.mismatches
    if run.differing_batches:
        mismatches.append(f"{run.differing_batches} batches differ from the first")
        failed += checked.attempted * run.differing_batches
    if not trace:
        metrics["ok_share"] = (1 - failed / attempted, "share")
    prov["failed_share"] = failed / attempted
    prov["mismatches"] = mismatches[:20]
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, prov


def traced_metrics(layers: list[dict], walls, plain_walls) -> dict:
    """Per-layer metrics over the traced batches: counts from the first batch
    (they repeat exactly), times as the median over batches."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(walls) - statistics.median(plain_walls)
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:
            value = layers[0][name]
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "evenfactor" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'evenfactor'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evenfactor

    if Path(evenfactor.__file__).resolve().parent != SRC / "evenfactor":
        print(f"error: evenfactor imported from {evenfactor.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, prov = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    prov.update(provenance(args))
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
