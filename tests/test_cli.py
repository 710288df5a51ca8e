"""The CLI contract: subcommand outputs and their pinned bytes, exit codes,
pipelines via stdin, what a child process shows under a memory, CPU, time or
stdin-encoding limit, and byte-identical reruns."""

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import evenfactor
from evenfactor import cli, harness
from evenfactor.cli import main
from evenfactor.factor import (
    NOT_EXISTS,
    UNKNOWN,
    ConditionReport,
    EvenFactorResult,
    verify_even_factor,
)
from evenfactor.graph6 import write_graph6
from evenfactor.graphs import Graph, complete, cycle, extremal, join
from evenfactor.harness import csv_lines, lemma_merge_sweep, tightness_report
from evenfactor.rng import SplitMix64, complete_minus_random_edges

# the interpreter arguments that run the CLI in a child
CLI = ["-m", "evenfactor.cli"]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env(**extra) -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(evenfactor.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _spawn(args, stdin=b"", *, address_space=None, timeout=60, **env):
    """Run `python *args` in a child and return (exit code, stdout, stderr).

    The child alone is limited: `address_space` bytes of RLIMIT_AS and
    `timeout` seconds; `env` adds environment variables."""

    def limit():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        env=_subprocess_env(**env),
        preexec_fn=limit,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _columns_1_to_15(path):
    """A sweep CSV as `cut -d, -f1-15` prints it: elapsed_ms, the one
    timing-derived column, dropped."""
    return "".join(",".join(line.split(",")[:15]) + "\n" for line in path.read_text().splitlines())


def test_threshold_edges(capsys):
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2", "--edges"])
    assert code == 0
    assert out == "23\n"


def test_threshold_rho(capsys):
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2", "--rho"])
    assert code == 0
    assert out.strip().startswith("6.0969240956")


@pytest.mark.parametrize(
    "n, delta, printed",
    # the roots are 67.798636402650115... and 97.215924955450148...
    [("88", "23", "67.7986364027"), ("110", "13", "97.2159249555")],
)
def test_threshold_rho_rounds_the_tenth_decimal(capsys, n, delta, printed):
    code, out, _ = run(capsys, ["threshold", "--n", n, "--delta", delta, "--rho"])
    assert (code, out) == (0, printed + "\n")


def test_threshold_both(capsys):
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2"])
    assert code == 0
    assert out.splitlines()[0] == "edges 23"
    assert out.splitlines()[1].startswith("rho 6.09692")


def test_gen_formats(capsys):
    code, out, _ = run(capsys, ["gen", "extremal", "--n", "8", "--delta", "2"])
    assert code == 0
    assert out.strip() == write_graph6(extremal(8, 2))
    code, out, _ = run(
        capsys,
        ["gen", "family", "--s", "2", "--parts", "5,1", "--format", "edgelist"],
    )
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_gen_family_unsorted_parts_rejected(capsys):
    code, _, err = run(capsys, ["gen", "family", "--s", "2", "--parts", "1,5"])
    assert code == 2
    assert "usage-error" in err


def test_pipeline_check_even_factor(capsys, monkeypatch):
    # the README pipeline: route 1.1's extremal graph has an even factor
    g6 = write_graph6(extremal(8, 2))
    code, out, err = run(capsys, ["check", "even-factor"], stdin=g6, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["exists", "cost 1"]
    assert all(len(line.split()) == 2 for line in lines[2:])


def test_h7_beside_k7_is_decided_by_the_gadget(capsys):
    # H7 beside K_7 has no even factor, yet passes the forced-edge parity
    # test; H7's odd-degree vertices have no perfect matching, so the
    # gadget decides, the second perfect-matching test
    code, out, err = run(capsys, ["check", "even-factor", "--graph6", "MYMGg?@?WB_N?^?^_"])
    assert (code, out, err) == (0, "not_exists\ncost 2\n", "")


def test_h7_beside_k12_is_decided(capsys):
    # H7 beside K_12: before the gadget, the oracle's dimension cap made
    # this "unknown", with exit 4
    code, out, err = run(
        capsys, ["check", "even-factor", "--graph6", "RYMGg?@?WB_N?^?^_NwB~?^{@~wB~w"]
    )
    assert (code, out, err) == (0, "not_exists\ncost 2\n", "")


def test_dense_graph_is_decided_within_seconds():
    # K_500 minus 500 edges has minimum degree far above n/2, so by Dirac's
    # theorem every vertex lies on a cycle and the oracle skips the forest
    # walk, whose per-cycle cover loop needs minutes and about 1 GB on it
    g = complete_minus_random_edges(500, 500, SplitMix64(1))
    code, out, err = _spawn(
        [*CLI, "check", "even-factor"],
        (write_graph6(g) + "\n").encode(),
        address_space=400 << 20,
        timeout=30,
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["exists", "cost 1"]
    assert verify_even_factor(g, tuple(tuple(map(int, line.split())) for line in lines[2:]))


@pytest.mark.parametrize(
    "argv, digest",
    [
        # three Petersen graphs have an even factor: every vertex has odd
        # degree, and the graph minus a perfect matching is one; every
        # certificate line
        (
            [
                "check", "even-factor", "--graph6",
                "]heA@GUAo??@?@??_@G?O?@??AO?Ao?@W??????G???_??@???H???G???A????Q???@W???Ao",
            ],
            "93a786139c747c2c04e32c397b99a7cc6713cdce466cba10eb41d700a80cb10a",
        ),
        # a larger identity grid than the default: delta up to 12, 101,945 checks
        (
            ["verify", "identities", "--delta-max", "12", "--n-extra", "20"],
            "4c49c6b4f94567ccb329a52843168919d343fd74b7f5d2737a50409fb15d756a",
        ),
    ],
    ids=["three-petersen", "identity-grid-12"],
)
def test_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert _sha256(out) == digest


def test_check_even_factor_unknown_exits_4(capsys, monkeypatch):
    # the oracle never answers "unknown"; exit 4 is kept for one that does
    monkeypatch.setattr(cli, "has_even_factor", lambda g: EvenFactorResult(UNKNOWN, None, 520))
    code, out, _ = run(capsys, ["check", "even-factor", "--graph6", "KYMGg?@?WB_N"])
    assert code == 4
    assert out.splitlines()[0] == "unknown"


@pytest.mark.parametrize(
    "flags, stdin, line",
    [
        (["--graph6", write_graph6(extremal(8, 2))], None, "violated S=0,1 odd_components=2"),
        # K_2 v (K_5 u 2K_1) at odd n = 9 leaves three odd components
        (["--graph6", "H~~~}B?"], None, "violated S=0,1 odd_components=3"),
        # the extremal graph at (24, 4) fails at its core
        ([], write_graph6(extremal(24, 4)) + "\n", "violated S=0,1,2,3 odd_components=4"),
    ],
    ids=["extremal-8-2", "odd-n", "extremal-24-4-stdin"],
)
def test_check_condition(capsys, monkeypatch, flags, stdin, line):
    code, out, _ = run(capsys, ["check", "condition", *flags], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (0, line + "\n")


@pytest.mark.parametrize(
    "g6",
    [
        # a (12, 3) graph at the edge threshold: the edge prune keeps size 3,
        # so the bicriticality test decides it
        "Km^{nv}yv~M|",
        # the edge prune leaves no size
        write_graph6(complete(8)),
        # an (11, 40) graph whose edge prune keeps sizes 2-5
        "J~V^evLztr_",
    ],
    ids=["bicritical", "pruned", "odd-n"],
)
def test_check_condition_holds(capsys, g6):
    code, out, _ = run(capsys, ["check", "condition", "--graph6", g6])
    assert (code, out) == (0, "holds\n")


def test_condition_is_decided_within_seconds():
    # a (23, 4) draw 46 edges below e_thr: the matching test decides odd n
    # too, where a subset walk would take seconds
    g6 = r"V`qwkg\qzlJnnNwnnvZq^BqLRTtoU~y|LwQ~le~L~gq_"
    assert _spawn([*CLI, "check", "condition", "--graph6", g6], timeout=5) == (0, "holds\n", "")
    # K_{12,12} fails first at a side, |S| = 12: the failed matching search
    # names it, where a subset walk over the sizes up to 12 takes about 25 s
    g6 = write_graph6(join(Graph.from_edges(12, []), Graph.from_edges(12, [])))
    line = "violated S=" + ",".join(map(str, range(12))) + " odd_components=12\n"
    assert _spawn([*CLI, "check", "condition", "--graph6", g6], timeout=5) == (0, line, "")


def test_spectral(capsys, monkeypatch):
    g6 = write_graph6(extremal(8, 2))
    code, out, _ = run(capsys, ["spectral"], stdin=g6, monkeypatch=monkeypatch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("rho 6.09692409")
    assert lines[1].startswith("iterations ")
    assert lines[2].startswith("residual ")


def test_spectral_of_a_long_path_from_an_edge_list(capsys, monkeypatch):
    # a 400-vertex path: one eigensolve, exact to print precision
    edges = "".join(f"{v} {v + 1}\n" for v in range(399))
    code, out, err = run(capsys, ["spectral"], stdin=edges, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    rho, iterations, residual = out.splitlines()
    assert (rho, iterations) == ("rho 1.999938622559", "iterations 0")
    label, value = residual.split()
    assert label == "residual" and float(value) < 1e-12


def test_spectral_of_zero_vertex_graph_exits_2(capsys):
    code, out, err = run(capsys, ["spectral", "--graph6", "?"])
    assert code == 2
    assert out == ""
    assert err == "usage-error: spectral radius needs at least one vertex\n"


@pytest.mark.parametrize("flags", [[], ["--which", "spectral"]], ids=["default", "spectral"])
def test_verdict_extremal(capsys, flags):
    g6 = write_graph6(extremal(8, 2))
    code, out, _ = run(capsys, ["verdict", *flags, "--graph6", g6])
    assert code == 0
    blob = json.loads(out)
    assert blob["guarantee"] == "extremal_exception"
    assert blob["e_G"] == 23 and blob["edge_threshold"] == 23


def test_verdict_from_edgelist_file(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4\n0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n")
    code, out, _ = run(capsys, ["verdict", "--file", str(p), "--which", "edges"])
    assert code == 0
    assert json.loads(out)["n"] == 4


@pytest.mark.parametrize("name", ["missing.g6", "."])
def test_unreadable_file_exits_2(capsys, tmp_path, name):
    # a missing file and a directory: one usage-error line, no traceback
    path = tmp_path / name
    code, out, err = run(capsys, ["check", "condition", "--file", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage-error: cannot read --file {path}: ")
    assert err.count("\n") == 1


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    # bytes that are not UTF-8 reach the parser: a parse error, exit 3
    p = tmp_path / "g.g6"
    p.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, ["check", "condition", "--file", str(p)])
    assert code == 3
    assert out == ""
    assert err == "parse-error: non-ASCII byte (byte offset 0)\n"


def test_non_utf8_stdin_is_a_parse_error():
    # a stdin that decodes strictly, as under a UTF-8 locale, fails on the
    # read; the byte is still a parse error, as it is through --file
    code, out, err = _spawn(
        [*CLI, "check", "condition"], b"\xff\n", PYTHONIOENCODING="utf-8:strict"
    )
    assert (code, out, err) == (3, "", "parse-error: non-ASCII byte (byte offset 0)\n")


def test_blank_stdin_is_a_parse_error(capsys, monkeypatch):
    code, out, err = run(capsys, ["check", "condition"], stdin="\n \n", monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err == "parse-error: no graph on input (byte offset 0)\n"


def test_lone_integer_on_stdin_is_an_edgeless_graph(capsys, monkeypatch):
    # "5" is not graph6 for any graph, but it is an edge-list header
    code, out, _ = run(capsys, ["check", "condition"], stdin="5\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "violated S=0,1 odd_components=3\n"


def test_parse_error_exits_3(capsys, monkeypatch):
    code, _, err = run(capsys, ["check", "condition"], stdin="!!!", monkeypatch=monkeypatch)
    assert code == 3
    assert "parse-error" in err
    code, _, err = run(
        capsys, ["verdict", "--graph6", chr(30) + "bad"],
    )
    assert code == 3


def test_empty_graph6_is_a_parse_error(capsys, monkeypatch):
    # an empty --graph6 is still a given graph: stdin is never read
    code, out, err = run(
        capsys, ["check", "condition", "--graph6", ""], stdin="0\n", monkeypatch=monkeypatch
    )
    assert code == 3
    assert out == ""
    assert err == "parse-error: empty input (byte offset 0)\n"


@pytest.mark.parametrize("n", [10**21, 2**36], ids=["1e21", "2^36"])
def test_edge_list_header_past_the_graph6_cap_is_a_parse_error(capsys, monkeypatch, n):
    # refused before any adjacency is allocated, so no OverflowError or
    # MemoryError escapes
    code, out, err = run(capsys, ["check", "condition"], stdin=f"{n}\n", monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err == (
        f"parse-error: edge list: vertex count {n} exceeds the graph6 cap {2**36 - 1}\n"
    )


# address space, in bytes, of a child that must run out of memory
CHILD_ADDRESS_SPACE = 1 << 28


@pytest.mark.parametrize(
    "stdin, n",
    [(f"{2**36 - 1}\n", 2**36 - 1), ("0 60000000000\n", 60000000001)],
    ids=["header", "implied"],
)
def test_edge_list_too_large_to_allocate_is_a_parse_error(stdin, n):
    # at or below graph6's cap, but past the memory the reader may take
    code, out, err = _spawn(
        [*CLI, "check", "condition"], stdin.encode(), address_space=CHILD_ADDRESS_SPACE
    )
    assert (code, out) == (3, "")
    assert err == f"parse-error: edge list: {n} vertices do not fit in memory\n"


def test_out_of_memory_is_a_usage_error():
    argv = ["gen", "extremal", "--n", "1000000", "--delta", "2"]
    code, out, err = _spawn([*CLI, *argv], address_space=CHILD_ADDRESS_SPACE)
    assert (code, out, err) == (2, "", "usage-error: out of memory running gen\n")


def test_a_draw_fits_in_memory_without_the_pair_list():
    # a draw decodes its indices into masks: K_3000 minus 5 edges fits in
    # 400 MB, where a list of K_3000's 4.5 M pairs would not
    script = (
        "from evenfactor.rng import SplitMix64, complete_minus_random_edges\n"
        "print(complete_minus_random_edges(3000, 5, SplitMix64(1)).edge_count)\n"
    )
    assert _spawn(["-c", script], address_space=400_000 * 1024) == (0, "4498495\n", "")


@pytest.mark.parametrize(
    "command", [["check", "even-factor"], ["check", "condition"], ["spectral"], ["verdict"]]
)
def test_graph6_and_file_exclude_each_other(capsys, tmp_path, command):
    p = tmp_path / "g.txt"
    p.write_text("3\n0 1\n1 2\n2 0\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--graph6", write_graph6(extremal(8, 2)), "--file", str(p)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --file: not allowed with argument --graph6" in captured.err


def test_usage_error_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["threshold", "--n", "5", "--delta", "3", "--edges"])
    assert code == 2
    assert "usage-error" in err
    out_path = tmp_path / "x.json"
    code, _, err = run(capsys, ["report", "tightness", "--n", "6", "--delta", "3", "--out", str(out_path)])
    assert code == 2


@pytest.mark.parametrize(
    "n, line",
    # no vertex cap.  At odd n, removing s vertices from C_n leaves at most
    # s paths, and the number of odd ones has the parity of s + 1: below s
    [(25, "holds"), (26, "violated S=0,2 odd_components=2")],
    ids=["25", "26"],
)
def test_condition_cap_holds_at_both_parities(capsys, n, line):
    code, out, err = run(capsys, ["check", "condition", "--graph6", write_graph6(cycle(n))])
    assert (code, out, err) == (0, line + "\n", "")


@pytest.mark.parametrize("command", [["spectral"], ["verdict"]])
def test_eigensolver_failure_is_a_numeric_error(capsys, monkeypatch, command):
    # LinAlgError is a ValueError, so uncaught it would exit 2 as a usage error
    import numpy as np

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run(capsys, [*command, "--graph6", write_graph6(extremal(8, 2))])
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numeric-error: eigensolver failed on order 8: ")


@pytest.mark.parametrize(
    "command, flags",
    [
        (["check", "even-factor"], ["--max-dim", "--max-candidates"]),
        (["spectral"], ["--tol", "--max-iter"]),
    ],
)
def test_numeric_settings_are_not_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert not [flag for flag in flags if flag in usage]


@pytest.mark.parametrize("delta", ["2", "3"])
def test_threshold_past_2_53_is_not_below_n_minus_delta(capsys, delta):
    # n - delta rounds to 9999999999999998.0 for both; the root lies within
    # roundoff of it and is printed as that float
    code, out, err = run(capsys, ["threshold", "--n", str(10**16), "--delta", delta])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "rho 9999999999999998.0000000000"


def test_threshold_error_leaves_stdout_empty(capsys):
    # the edge threshold exists at delta = 1, the spectral one does not
    code, out, err = run(capsys, ["threshold", "--n", "8", "--delta", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage-error: blocks empty for n=8, s=1")
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "1", "--edges"])
    assert (code, out) == (0, "28\n")


def test_threshold_past_the_float_range_is_a_numeric_error(capsys):
    # the cubic is not finite there; no command prints nan
    code, out, err = run(capsys, ["threshold", "--n", str(10**103), "--delta", "2", "--rho"])
    assert (code, out) == (1, "")
    assert err.startswith("numeric-error: ")
    assert err.count("\n") == 1
    assert "nan" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--n", str(10**400), "--delta", "2"],
        ["gen", "extremal", "--n", str(10**20), "--delta", "2"],
        ["gen", "family", "--s", "2", "--parts", str(10**20)],
    ],
    ids=["float", "extremal", "family"],
)
def test_integer_too_large_is_a_usage_error(capsys, argv):
    # past a float or a shift, refused before anything is allocated
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage-error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--delta-max", "1"],
        ["verify", "identities", "--n-extra", "-40"],
        ["verify", "lemmas", "--max-n", "14", "--max-s", "0"],
        ["verify", "lemmas", "--max-n", "3", "--max-s", "4"],
        ["sweep", "soundness", "--n", "8", "--delta", "2", "--samples", "0"],
    ],
)
def test_empty_campaign_exits_2(capsys, tmp_path, argv):
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "empty.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage-error: ")
    assert not (tmp_path / "empty.csv").exists()


def test_verify_identities(capsys):
    code, out, err = run(
        capsys, ["verify", "identities", "--delta-max", "2", "--n-extra", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines[:20]:
        blob = json.loads(line)
        assert blob["pass"] in (True, None)
    assert "failures=0" in err


def test_verify_lemmas(capsys):
    code, out, err = run(
        capsys, ["verify", "lemmas", "--max-n", "14", "--max-s", "4", "--p", "1,2"]
    )
    assert code == 0
    assert out.startswith("campaign,seed,row_id")
    # the rows whose bytes test_harness pins; the summary is the last line
    # on stderr
    rep = lemma_merge_sweep(14, 4, [1, 2])
    assert out == "".join(line + "\n" for line in csv_lines(rep))
    assert err.splitlines()[-1] == "instances=824 counterexamples=0"


def test_lemma_parts_below_one_exit_2(capsys):
    for ps in ("0", "-1", "1,0"):
        code, out, err = run(
            capsys, ["verify", "lemmas", "--max-n", "9", "--max-s", "2", "--p", ps]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage-error: lemma parts must be at least 1")


def test_sweep_outside_route_exits_2(capsys, tmp_path):
    out_path = tmp_path / "odd.csv"
    code, out, err = run(
        capsys,
        [
            "sweep", "soundness", "--n", "9,11", "--delta", "2",
            "--samples", "5", "--out", str(out_path),
        ],
    )
    assert code == 2
    assert err.startswith("usage-error: route 1.1 hypotheses unmet for n=9, delta=2")
    assert not out_path.exists()


def test_sweep_soundness(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep", "soundness", "--n", "8", "--delta", "2",
            "--samples", "25", "--seed", "42", "--which", "edges",
            "--out", str(out_path),
        ],
    )
    assert code == 0
    assert "counterexamples=0" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("campaign,")
    assert len(lines) == 26


@pytest.mark.parametrize(
    "argv, digest",
    [
        # every row is decided by the odd-degree matching
        (
            ["--n", "44", "--delta", "8", "--samples", "50", "--seed", "7"],
            "dd6a28d78e510fadc58787e53cc0c9e26f23e89b334c9cdea63f7e2504f7bc1f",
        ),
        # the acceptance sweeps, which repeat draws most (252 and 360 of
        # their 1,000), one per route
        (
            ["--n", "8,10", "--delta", "2", "--samples", "500", "--seed", "42"],
            "93df54894b4d03c9444866e4b132b9e2ba84de523edb6d0e0df695f138839fc8",
        ),
        (
            ["--which", "spectral", "--n", "8,10", "--delta", "2", "--samples", "500", "--seed", "42"],
            "3f6eccb321a76271ff6295ada173c018d3f46ded8ea1d2b3727beefdbe8c55de",
        ),
    ],
    ids=["44-8", "acceptance-edges", "acceptance-spectral"],
)
def test_sweep_csv_is_pinned(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", "soundness", *argv, "--out", str(out_path)])
    assert code == 0
    assert _sha256(_columns_1_to_15(out_path)) == digest


def test_sweep_unknown_rows_exit_4(capsys, monkeypatch, tmp_path):
    # the oracle never answers "unknown"; the tally and exit 4 are kept
    monkeypatch.setattr(harness, "has_even_factor", lambda g: EvenFactorResult(UNKNOWN, None, 1))
    code, out, _ = run(
        capsys,
        [
            "sweep", "soundness", "--n", "8", "--delta", "2",
            "--samples", "10", "--seed", "1", "--out", str(tmp_path / "capped.csv"),
        ],
    )
    assert code == 4
    assert out == "rows=10 counterexamples=0 unknowns=10 sampler_failures=0\n"


@pytest.mark.parametrize(
    "argv, patched, value, summary",
    [
        (
            ["sweep", "soundness", "--n", "8", "--delta", "2", "--samples", "5"],
            "has_even_factor",
            EvenFactorResult(NOT_EXISTS, None, 0),
            "rows=5 counterexamples=",
        ),
        (
            ["report", "tightness", "--n", "8", "--delta", "2"],
            "has_even_factor",
            EvenFactorResult(NOT_EXISTS, None, 0),
            "checks_passed=5/5 ",
        ),
        (
            ["report", "tightness", "--n", "8", "--delta", "2"],
            "check_yan_kano_condition",
            ConditionReport(holds=True),
            "checks_passed=2/5 ",
        ),
    ],
    ids=["sweep-oracle", "tightness-oracle", "tightness-condition"],
)
def test_counterexamples_exit_1(capsys, monkeypatch, tmp_path, argv, patched, value, summary):
    # a wrong oracle or condition answer must fail the campaign
    monkeypatch.setattr(harness, patched, lambda g: value)
    out_path = tmp_path / "failed.out"
    code, out, _ = run(capsys, [*argv, "--out", str(out_path)])
    assert code == 1
    assert out.startswith(summary)
    assert int(out.split("counterexamples=")[1].split()[0]) > 0
    assert out_path.read_text()


def test_sweep_past_2_64_edges_is_a_usage_error(tmp_path):
    # K_n has more than 2^64 edges at this n, so the sampler's draw has no
    # rejection limit; it must refuse the bound before allocating the graph.
    # The child runs capped and with a timeout, so a sampler that loops or
    # allocates fails the test instead of hanging it
    out_path = tmp_path / "huge.csv"
    argv = ["sweep", "soundness", "--n", "8000000000", "--delta", "2", "--samples", "1"]
    code, out, err = _spawn(
        [*CLI, *argv, "--out", str(out_path)], address_space=CHILD_ADDRESS_SPACE
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage-error: randrange needs a bound from 1 to 2^64, got ")
    assert err.count("\n") == 1
    assert not out_path.exists()


def test_sweep_rerun_is_byte_identical_modulo_timing(capsys, tmp_path):
    argv = [
        "sweep", "soundness", "--n", "8", "--delta", "2",
        "--samples", "20", "--seed", "11", "--which", "spectral",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert _columns_1_to_15(a) == _columns_1_to_15(b)


def test_report_tightness(capsys, tmp_path):
    out_path = tmp_path / "tight.json"
    code, out, _ = run(
        capsys,
        ["report", "tightness", "--n", "8", "--delta", "2", "--out", str(out_path)],
    )
    assert code == 0
    assert "checks_passed=5/5" in out
    text = out_path.read_text()
    blob = json.loads(text)
    assert blob["findings"]["extremal_oracle_finding"]["status"] == "exists"
    # the JSON whose bytes test_harness pins
    assert text == json.dumps(tightness_report(8, 2).to_json_dict(), indent=2) + "\n"
    # past 24 vertices, the first order route 1.1 reaches at delta = 5
    code, out, _ = run(
        capsys,
        ["report", "tightness", "--n", "26", "--delta", "5", "--out", str(out_path)],
    )
    assert code == 0
    assert "checks_passed=5/5" in out
    assert json.loads(out_path.read_text())["findings"]["condition_witness"] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "argv, campaign",
    [
        (["sweep", "soundness", "--n", "8", "--delta", "2", "--samples", "5"], "soundness_sweep"),
        (["report", "tightness", "--n", "8", "--delta", "2"], "tightness_report"),
    ],
)
@pytest.mark.parametrize(
    "target", ["missing/x.out", ".", "x" * 300], ids=lambda t: t if len(t) < 80 else "long-name"
)
def test_unwritable_out_exits_2_before_the_campaign(
    capsys, monkeypatch, tmp_path, argv, campaign, target
):
    # a missing directory, a directory in place of the file, and a name too
    # long to stat
    def campaign_must_not_run(*args, **kwargs):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr(cli, campaign, campaign_must_not_run)
    code, out, err = run(capsys, [*argv, "--out", str(tmp_path / target)])
    assert (code, out) == (2, "")
    assert err.startswith("usage-error: cannot write --out ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "soundness", "--n", "8", "--delta", "2", "--samples", "5"],
        ["report", "tightness", "--n", "8", "--delta", "2"],
    ],
)
def test_out_that_fails_at_write_time_exits_2(capsys, argv):
    # /dev/full passes the check before the campaign; the write itself fails
    code, out, err = run(capsys, [*argv, "--out", "/dev/full"])
    assert (code, out) == (2, "")
    assert err.startswith("usage-error: cannot write --out /dev/full: ")
    assert err.count("\n") == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run(capsys, ["threshold", "--n", "8", "--delta", "2"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2", "--edges"])
    assert (code, out) == (0, "23\n")
    assert built == []


def test_flags_do_not_carry_over_between_calls(capsys, monkeypatch):
    seen = []
    real_threshold = cli._cmd_threshold

    def spy(args):
        seen.append(args)
        return real_threshold(args)

    monkeypatch.setattr(cli, "_cmd_threshold", spy)
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2", "--edges"])
    assert (code, out) == (0, "23\n")
    code, out, _ = run(capsys, ["threshold", "--n", "8", "--delta", "2"])
    assert code == 0
    assert out.splitlines()[0] == "edges 23"
    assert out.splitlines()[1].startswith("rho 6.09692")
    assert [a.edges for a in seen] == [True, False]
    assert seen[0] is not seen[1]


def test_cli_request_leaves_numpy_unloaded():
    script = (
        "import sys\n"
        "from evenfactor.cli import main\n"
        "code = main(['threshold', '--n', '8', '--delta', '2'])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert 'concurrent.futures.process' not in sys.modules, 'process pool was imported'\n"
    )
    code, out, err = _spawn(["-c", script])
    assert code == 0, err
    assert out.splitlines()[0] == "edges 23"


@pytest.mark.parametrize(
    "module",
    ["cli", "factor", "graph6", "graphs", "harness", "identities", "rng", "spectral", "thresholds"],
)
def test_each_module_imports_alone(module):
    # a bare package import binds no public name and loads no module, so an
    # import cycle between the modules cannot hide behind it
    script = (
        "import sys\n"
        "import evenfactor\n"
        "public = [k for k in vars(evenfactor) if not k.startswith('_')]\n"
        "assert not public, public\n"
        f"import evenfactor.{module}\n"
    )
    if module == "graphs":
        script += (
            "loaded = sorted(m for m in sys.modules if m.startswith('evenfactor.'))\n"
            "assert loaded == ['evenfactor.graphs'], loaded\n"
        )
    code, _, err = _spawn(["-c", script])
    assert code == 0, err


def test_same_argv_same_stdout(capsys):
    argv = ["verify", "identities", "--delta-max", "2", "--n-extra", "1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, stdin",
    [
        # the README pipeline `... | evenfactor check even-factor | head -2`
        (["check", "even-factor"], write_graph6(extremal(8, 2))),
        # far more than a pipe buffer holds, so the writer must hit the close
        (["gen", "extremal", "--n", "400", "--delta", "2", "--format", "edgelist"], ""),
    ],
    ids=["check-pipeline", "large-gen"],
)
def test_reader_closing_pipe_exits_quietly(argv, stdin, unbuffered):
    env = _subprocess_env(PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, *CLI, *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdin.write(stdin.encode())
    proc.stdin.close()
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert all(line.endswith(b"\n") for line in head)
