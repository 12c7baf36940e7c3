"""Batch command-line front end.

Every command reads files named by flags, writes exactly one JSON document
to stdout and keeps all diagnostics on stderr.  Exit codes: 0 success,
1 failed verification checks, 2 parse or validation problems, 3 resource
cap exceeded, 4 impossible postselection, 5 an internal error (any other
exception, reported in one line).  All randomness enters through
--seed, so reruns with the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from dataclasses import asdict
from typing import Sequence

from .analysis import (
    INCOMPARABLE,
    estimate_trace,
    multiplicative_error_report,
    parse_distribution,
)
from .circuits import _index_field, _json_text, parse_circuit, parse_unitary, serialize_circuit
from .config import DEFAULT_SEED
from .engine import conditional_distribution, exact_distribution, sample
from .errors import (
    ContractError,
    Dqc1Error,
    ParseError,
    PostselectionImpossibleError,
    ResourceError,
)
from .gadgets import compile_n_plus_1, compile_three, parse_pattern
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_IMPOSSIBLE = 4
EXIT_INTERNAL = 5


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), location=path) from exc


def _parse_postselect(text: str) -> dict[int, int]:
    assignments: dict[int, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        qubit, sep, bit = piece.partition("=")
        message = f"bad postselect entry {piece!r}, expected index=bit"
        if not sep or bit.strip() not in ("0", "1"):
            raise ParseError(message, location="--postselect")
        q = _index_field(qubit.strip(), message, "--postselect")
        if q in assignments:
            raise ParseError(f"qubit {q} assigned twice", location="--postselect")
        assignments[q] = int(bit)
    if not assignments:
        raise ParseError("empty postselect list", location="--postselect")
    return assignments


def _emit(doc: dict) -> None:
    sys.stdout.write(_json_text(doc) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    dc = parse_circuit(_read_text(args.circuit))
    record = sample(dc, args.shots, args.seed)
    counts = {key: int(v) for key, v in record.counts().items()}
    _emit({"counts": counts, "shots": args.shots, "seed": args.seed})
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    dc = parse_circuit(_read_text(args.circuit))
    ps = dc.postselect if args.postselect is None else _parse_postselect(args.postselect)
    doc = {}
    if not ps:
        dist = exact_distribution(dc)
    else:
        dist, event = conditional_distribution(dc, ps)
        doc = {
            "postselect": {str(q): b for q, b in sorted(ps.items())},
            "postselection_probability": event,
        }
    doc.update(measured=list(dist.measured_qubits), probs=dist.probs)
    _emit(doc)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    u = parse_unitary(_read_text(args.unitary))
    _emit(asdict(estimate_trace(u, args.part, shots=args.shots, seed=args.seed)))
    return EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    pattern = parse_pattern(_read_text(args.pattern))
    compiler = compile_n_plus_1 if args.mode == "n1" else compile_three
    red = compiler(pattern)
    text = serialize_circuit(red.circuit)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(str(exc), location=args.out) from exc
    _emit(
        {
            "mode": args.mode,
            "circuit_file": args.out,
            "measured_count": len(red.circuit.measured),
            "measured": list(red.circuit.measured),
            "output_qubits": list(red.output_qubits),
            "postselect": {str(q): b for q, b in sorted(red.postselect.items())},
        }
    )
    return EXIT_OK


def cmd_check_error(args: argparse.Namespace) -> int:
    p = parse_distribution(_read_text(args.dist_p))
    q = parse_distribution(_read_text(args.dist_q))
    report = multiplicative_error_report(p, q)
    if report is INCOMPARABLE:
        _emit({"incomparable": True})
        return EXIT_OK
    # The report lists the subsets by size, each size in combinations order.
    names = list(map(str, p.measured_qubits))
    subsets = (subset for r in range(1, len(names) + 1) for subset in itertools.combinations(names, r))
    per = dict(zip(map(",".join, subsets), report.per_marginal_c.values()))
    _emit({"per_marginal_c": per, "worst_c": report.worst_c})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    doc = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
    _emit(doc)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.name} residual={r.residual:.3e}", file=sys.stderr)
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="dqc1sim", description="One-clean-qubit circuit toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, shots_default: int = 100000) -> None:
        p.add_argument("--shots", type=int, default=shots_default)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    run_p = sub.add_parser("run", help="sample a circuit file")
    run_p.add_argument("--circuit", required=True)
    add_common(run_p, shots_default=1024)
    run_p.set_defaults(func=cmd_run)

    exact_p = sub.add_parser("exact", help="exact measurement distribution")
    exact_p.add_argument("--circuit", required=True)
    exact_p.add_argument("--postselect", default=None, metavar="I=B,J=B")
    exact_p.set_defaults(func=cmd_exact)

    trace_p = sub.add_parser("trace", help="estimate a unitary's normalized trace")
    trace_p.add_argument("--unitary", required=True)
    trace_p.add_argument("--part", choices=("real", "imaginary"), default="real")
    add_common(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    compile_p = sub.add_parser("compile", help="compile a measurement pattern")
    compile_p.add_argument("--pattern", required=True)
    compile_p.add_argument("--mode", choices=("n1", "three"), required=True)
    compile_p.add_argument("--out", required=True)
    compile_p.set_defaults(func=cmd_compile)

    check_p = sub.add_parser("check-error", help="multiplicative error between two distributions")
    check_p.add_argument("dist_p")
    check_p.add_argument("dist_q")
    check_p.set_defaults(func=cmd_check_error)

    verify_p = sub.add_parser("verify", help="run an invariant suite")
    verify_p.add_argument("--suite", choices=tuple(sorted(SUITES)) + ("all",), default="all")
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PostselectionImpossibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except Dqc1Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a bug: one line, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
