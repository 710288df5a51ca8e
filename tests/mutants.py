"""Run the tier-1 suite against one-line mutants of the package.

Each MUTANTS entry names a file, a line exactly as it stands there, the
line that replaces it, and the test expected to fail.  Per entry the script
copies src/ and tests/ to a temporary directory, applies the replacement
there and runs `python -m pytest -x -q` on the copy.  A mutant is killed
when the suite fails.  The checkout itself is never written.

    python tests/mutants.py

prints one line per mutant and exits 1 if any survives.  Before the first
suite runs it checks that every entry's line occurs exactly once in its
file, and exits 1 naming each entry that does not.  Pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old line, new line, expected killer)
MUTANTS = [
    (
        "src/evenfactor/thresholds.py",
        "                meets_edge = e_g >= e_thr",
        "                meets_edge = e_g >= e_thr - 1",
        "tests/test_thresholds.py::TestVerdict::test_one_edge_below_the_threshold",
    ),
    (
        "src/evenfactor/thresholds.py",
        "                meets_rho = meets_spectral(rho_g, rho_thr)",
        "                meets_rho = meets_spectral(rho_g, rho_thr - 0.05)",
        "tests/test_thresholds.py::TestVerdict::test_just_below_the_spectral_threshold",
    ),
    (
        "src/evenfactor/thresholds.py",
        "        return n % 2 == 0 and n >= spectral_route_floor(delta)",
        "        return n >= spectral_route_floor(delta)",
        "tests/test_thresholds.py::test_applicability",
    ),
    # Dirac's skip without n >= 3: K_2 has minimum degree 1 = n/2 and would
    # come back "exists" with an empty certificate
    (
        "src/evenfactor/factor.py",
        "    if n < 3 or 2 * g.min_degree() < n:",
        "    if 2 * g.min_degree() < n:",
        "tests/test_factor.py::TestOracle::test_false_certificate_rejected[reversed-duplicate]",
    ),
    # the bridge prune reduced to a minimum-degree test: a vertex of degree
    # 3 on three bridges slips through to the matchings
    (
        "src/evenfactor/factor.py",
        "        if union != full:",
        "        if min(map(int.bit_count, g.adj)) < 2:",
        "tests/test_factor.py::TestOracle::test_vertex_on_three_bridges_with_minimum_degree_3",
    ),
    # the forced edges read off the degree-3 vertices instead
    (
        "src/evenfactor/factor.py",
        "        two |= (d == 2) << v",
        "        two |= (d == 3) << v",
        "tests/test_acceptance.py::test_05_oracle_equivalence",
    ),
    # the parity test on the components of G, not of G - F: it never fires
    (
        "src/evenfactor/factor.py",
        "    if two and any((c & odd).bit_count() & 1 for c in g.components(full & ~two)):",
        "    if two and any((c & odd).bit_count() & 1 for c in g.components(full)):",
        "tests/test_factor.py::TestOracle::test_k23_has_no_even_factor",
    ),
    # the even-degree vertices counted and matched instead of the odd ones
    (
        "src/evenfactor/factor.py",
        "        odd |= (d & 1) << v",
        "        odd |= (not d & 1) << v",
        "tests/test_acceptance.py::test_05_oracle_equivalence",
    ),
    # the factor read off the matched edges instead of the others: each row
    # starts empty, and clearing the mate's bit sets it
    (
        "src/evenfactor/factor.py",
        "            m = row >> v + 1 << v + 1",
        "            m = 0",
        "tests/test_acceptance.py::test_09_tightness_reports",
    ),
    # the gadget without the clique among its inner vertices decides
    # 2-factors, not even factors; test_05 has graphs that reach the gadget
    (
        "src/evenfactor/factor.py",
        "        inner_rows += [p | clique ^ 1 << w for w in range(top, top + d - 2)]",
        "        inner_rows += [p for w in range(top, top + d - 2)]",
        "tests/test_acceptance.py::test_05_oracle_equivalence",
    ),
    # the factor read off the ports matched to inner vertices instead; K_5
    # minus an edge is the first gadget certificate a test verifies
    (
        "src/evenfactor/factor.py",
        "    return tuple(e for i, e in enumerate(edges) if mate[2 * i] == 2 * i + 1)",
        "    return tuple(e for i, e in enumerate(edges) if mate[2 * i] != 2 * i + 1)",
        "tests/test_factor.py::TestOracle::test_k5_minus_an_edge_is_decided_by_the_gadget",
    ),
    # the sweep memo looked up by n: no draw is ever found in it, so every
    # repeat is filtered, solved and decided again; the rows do not change
    (
        "src/evenfactor/harness.py",
        "                if g.adj in memo:",
        "                if g.n in memo:",
        "tests/test_harness.py::TestSoundnessSweep::test_oracle_runs_once_per_distinct_draw[edges]",
    ),
]


def run_mutant(path: str, old: str, new: str) -> str | None:
    """The first failing test id of the suite run on a mutated copy, or
    None if the whole suite passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / path
        lines = target.read_text().split("\n")
        lines[lines.index(old)] = new
        target.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {proc.returncode}"


def stale_entries() -> list[str]:
    """One message per entry whose old line does not occur exactly once in
    its file of the checkout."""
    stale = []
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().split("\n").count(old)
        if count != 1:
            stale.append(f"{path}: line found {count} times, not once: {old.strip()!r}")
    return stale


def main() -> int:
    # a stale entry stops the run before the first suite, not at its turn
    stale = stale_entries()
    for message in stale:
        print(message)
    if stale:
        return 1
    killed = 0
    for path, old, new, expected in MUTANTS:
        failed = run_mutant(path, old, new)
        killed += failed is not None
        verdict = "survived" if failed is None else f"killed by {failed}"
        note = "" if failed in (None, expected) else f" (expected {expected})"
        print(f"{path}: {new.strip()!r}: {verdict}{note}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
