"""Command-line surface.  Every subcommand is I/O plumbing over the module
API; graphs arrive as --graph6, --file, or on stdin (auto-detected between
graph6 and edge-list text).

Exit codes: 0 success / all pass, 1 verification failure or counterexample,
2 usage or parameter-domain error, 3 input parse error, 4 reserved for an
"unknown" oracle answer, which the oracle no longer gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .factor import UNKNOWN, check_yan_kano_condition, has_even_factor
from .graph6 import (
    Graph6Error,
    GraphParseError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .graphs import FamilySpec, Graph, build_family, extremal
from .harness import (
    csv_lines,
    lemma_merge_sweep,
    soundness_sweep,
    tightness_report,
)
from .identities import grid_failures, run_identity_grid
from .spectral import EigensolverError, RootFindingError, spectral_radius
from .thresholds import edge_threshold, spectral_threshold, verdict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPPED = 4


def _parse_graph_text(text: str) -> Graph:
    tokens = text.split(maxsplit=1)
    if not tokens:
        raise Graph6Error("no graph on input", 0)
    # a lone token is graph6 unless it is all digits, which no graph6 string
    # is: a lone integer is an edge-list header (an edgeless graph)
    if len(tokens) == 1 and not tokens[0].isdigit():
        return parse_graph6(tokens[0])
    return parse_edge_list(text)


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.file is not None:
        # an undecodable byte is kept as a surrogate, so that the parser
        # reports it as a parse error rather than the read failing
        try:
            text = Path(args.file).read_text(errors="surrogateescape")
        except OSError as exc:
            raise ValueError(f"cannot read --file {args.file}: {exc.strerror}") from None
        return _parse_graph_text(text)
    # a strict-decoding stdin fails on the read itself; report that byte as
    # the parser reports it in --file
    try:
        text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None
    return _parse_graph_text(text)


def _print_graph(g: Graph, fmt: str) -> None:
    if fmt == "edgelist":
        sys.stdout.write(write_edge_list(g))
    else:
        print(write_graph6(g))


def _check_out(path: str) -> None:
    """Refuse an --out path that open() would reject, before the campaign
    that fills it runs; a probe that fails (a name too long to stat) is the
    same refusal."""
    target = Path(path)
    try:
        writable = (
            not target.is_dir()
            and target.parent.is_dir()
            and os.access(target if target.exists() else target.parent, os.W_OK)
        )
    except OSError:
        writable = False
    if not writable:
        raise ValueError(f"cannot write --out {path}")


def _write_out(path: str, lines: Iterable[str]) -> None:
    """Write each line to --out; a failed write (a full disk) is a usage error."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every `parse_args` call
    returns a fresh Namespace, and no default is mutated after parsing."""
    top = argparse.ArgumentParser(
        prog="evenfactor",
        description="Verification lab for size and spectral conditions for even factors",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # a graph arrives by one of these flags, or on stdin when both are absent
    graph_in = argparse.ArgumentParser(add_help=False)
    source = graph_in.add_mutually_exclusive_group()
    source.add_argument("--graph6")
    source.add_argument("--file")

    gen = sub.add_parser("gen", help="construct family graphs")
    gen_sub = gen.add_subparsers(dest="gen_what", required=True)
    gen_ext = gen_sub.add_parser("extremal")
    gen_ext.add_argument("--n", type=int, required=True)
    gen_ext.add_argument("--delta", type=int, required=True)
    gen_ext.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    gen_fam = gen_sub.add_parser("family")
    gen_fam.add_argument("--s", type=int, required=True)
    gen_fam.add_argument("--parts", type=_int_list, required=True)
    gen_fam.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    check = sub.add_parser("check", help="even-factor oracle and condition checks")
    check_sub = check.add_subparsers(dest="check_what", required=True)
    check_sub.add_parser("even-factor", parents=[graph_in])
    check_sub.add_parser("condition", parents=[graph_in])

    sub.add_parser("spectral", parents=[graph_in], help="spectral radius with residual")

    thr = sub.add_parser("threshold", help="edge and spectral thresholds")
    thr.add_argument("--n", type=int, required=True)
    thr.add_argument("--delta", type=int, required=True)
    thr.add_argument("--edges", action="store_true")
    thr.add_argument("--rho", action="store_true")

    ver = sub.add_parser("verdict", parents=[graph_in], help="guarantee verdict as JSON")
    ver.add_argument("--which", choices=("edges", "spectral", "both"), default="both")

    verify = sub.add_parser("verify", help="identity grids and lemma sweeps")
    verify_sub = verify.add_subparsers(dest="verify_what", required=True)
    verify_id = verify_sub.add_parser("identities")
    verify_id.add_argument("--delta-max", type=int, default=8)
    verify_id.add_argument("--n-extra", type=int, default=20)
    verify_lem = verify_sub.add_parser("lemmas")
    verify_lem.add_argument("--max-n", type=int, required=True)
    verify_lem.add_argument("--max-s", type=int, required=True)
    verify_lem.add_argument("--p", type=_int_list, default=[1])

    sweep = sub.add_parser("sweep", help="randomized soundness campaigns")
    sweep_sub = sweep.add_subparsers(dest="sweep_what", required=True)
    sweep_s = sweep_sub.add_parser("soundness")
    sweep_s.add_argument("--n", type=_int_list, required=True)
    sweep_s.add_argument("--delta", type=int, required=True)
    sweep_s.add_argument("--samples", type=int, required=True)
    sweep_s.add_argument("--seed", type=int, default=0)
    sweep_s.add_argument("--which", choices=("edges", "spectral"), default="edges")
    sweep_s.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="threshold tightness reports")
    rep_sub = rep.add_subparsers(dest="report_what", required=True)
    rep_t = rep_sub.add_parser("tightness")
    rep_t.add_argument("--n", type=int, required=True)
    rep_t.add_argument("--delta", type=int, required=True)
    rep_t.add_argument("--out", required=True)

    return top


def _cmd_gen(args) -> int:
    if args.gen_what == "extremal":
        _print_graph(extremal(args.n, args.delta), args.format)
    else:
        _print_graph(build_family(FamilySpec(args.s, tuple(args.parts))), args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _read_graph(args)
    if args.check_what == "even-factor":
        res = has_even_factor(g)
        # one write for the whole answer: a print per certificate edge pays a
        # call and a stream write for each line
        cert = "".join(f"{u} {v}\n" for u, v in res.certificate or ())
        sys.stdout.write(f"{res.status}\ncost {res.search_cost}\n{cert}")
        return EXIT_CAPPED if res.status == UNKNOWN else EXIT_OK
    rep = check_yan_kano_condition(g)
    if rep.holds:
        print("holds")
    else:
        witness = ",".join(str(v) for v in rep.witness)
        print(f"violated S={witness} odd_components={rep.witness_odd_components}")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    res = spectral_radius(_read_graph(args))
    print(f"rho {res.rho:.12f}")
    print(f"iterations {res.iterations}")
    print(f"residual {res.residual:.3e}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    # every line is computed before the first is printed, so an error exit
    # leaves stdout empty
    labeled = args.edges == args.rho  # neither or both flags: print labeled lines
    lines = []
    if args.edges or labeled:
        e_thr = str(edge_threshold(args.n, args.delta))
        lines.append(f"edges {e_thr}" if labeled else e_thr)
    if args.rho or labeled:
        rho_thr = f"{spectral_threshold(args.n, args.delta):.10f}"
        lines.append(f"rho {rho_thr}" if labeled else rho_thr)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_verdict(args) -> int:
    vd = verdict(_read_graph(args), which=args.which)
    print(json.dumps(vd.to_json_dict()))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.verify_what == "identities":
        checks = run_identity_grid(delta_max=args.delta_max, n_extra=args.n_extra)
        failures = grid_failures(checks)
        for check in checks:
            print(json.dumps(check.to_json_dict()))
        print(
            f"checks={len(checks)} failures={len(failures)}",
            file=sys.stderr,
        )
        return EXIT_FAIL if failures else EXIT_OK
    report = lemma_merge_sweep(args.max_n, args.max_s, args.p)
    for line in csv_lines(report):
        print(line)
    print(
        f"instances={report.findings['instances']} "
        f"counterexamples={len(report.counterexamples)}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    report = soundness_sweep(
        ns=args.n,
        delta=args.delta,
        samples=args.samples,
        seed=args.seed,
        which=args.which,
    )
    _write_out(args.out, csv_lines(report))
    print(
        f"rows={len(report.rows)} counterexamples={len(report.counterexamples)} "
        f"unknowns={report.findings['unknown_rows']} "
        f"sampler_failures={report.findings['sampler_failures']}"
    )
    if report.counterexamples:
        return EXIT_FAIL
    if report.findings["unknown_rows"]:
        return EXIT_CAPPED
    return EXIT_OK


def _cmd_report(args) -> int:
    _check_out(args.out)
    report = tightness_report(args.n, args.delta)
    _write_out(args.out, [json.dumps(report.to_json_dict(), indent=2)])
    checks = report.findings["checks"]
    print(
        f"checks_passed={sum(checks.values())}/{len(checks)} "
        f"supergraphs={len(report.rows) - 1} "
        f"counterexamples={len(report.counterexamples)} "
        f"extremal_oracle={report.findings['extremal_oracle_finding']['status']}"
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "spectral": _cmd_spectral,
        "threshold": _cmd_threshold,
        "verdict": _cmd_verdict,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    try:
        code = dispatch[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except GraphParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EigensolverError, RootFindingError) as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OverflowError) as exc:
        # an OverflowError is a parameter too large for a float or a shift
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        pass
    # reported outside the handler, once the frames that held the memory
    # are freed
    print(f"usage-error: out of memory running {args.command}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
