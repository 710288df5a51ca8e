"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks that the same seed yields byte-identical corpora and another seed a
different one (proof_grid has no drawn input), that a tiny run of every
workload passes its output checks and emits exactly the metrics
BENCHMARK.json names, with their units, and that the exact counts
`factor.search_cost` and `spectral.iterations` repeat for a seed.  Prints one
line per failure and exits with status 1 if there is any.
"""

from __future__ import annotations

import json
import sys

import run

EXACT_COUNTS = ("factor.search_cost", "spectral.iterations")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, corpus_bytes

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    for name, wl in WORKLOADS.items():
        first = corpus_bytes(wl.corpus(1))
        if corpus_bytes(wl.corpus(1)) != first:
            failures.append(f"{name}: seed 1 gave two different corpora")
        if name != "proof_grid" and corpus_bytes(wl.corpus(2)) == first:
            failures.append(f"{name}: seeds 1 and 2 gave the same corpus")
        counts = []
        for trace in (False, True, True):
            result, prov = run.run_workload(wl, seed=1, seconds=0.01, trace=trace, small=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                failures.append(f"{name} trace={int(trace)}: missing {missing}, extra {extra}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{name} trace={int(trace)}: {prov['mismatches']}")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        if counts[0] != counts[1]:
            failures.append(f"{name}: exact counts differ between runs: {counts}")
        print(f"{name}: checked", flush=True)
    for line in failures:
        print("FAIL", line)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
