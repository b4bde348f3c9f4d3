"""Command-line front end.

Subcommands: classify (dimension table for a shape), check (per-criterion
outcomes for one dimension), search (splitter-set search with certificate
storage), verify (certificate store verification), summarize (firing
statistics).  Exit codes: 0 success, 1 usage error, 2 verification failure
or contradiction.  Reports go to stdout and are byte-identical across
identical invocations; diagnostics and timings go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .classify import (
    ContradictionError,
    Verdicts,
    classify_range,
    default_certificates_path,
    default_registry,
    load_certificates,
    report_csv,
    report_json,
    report_text,
    store_certificate,
    summarize,
    witness_text,
)
from .criteria import CRITERION_ORDER, outcomes
from .search import DEFAULT_NODE_BUDGET, SearchStatus, find_splitting
from .splitting import QuasiCrossShape, Splitting, check_arms, interval_multipliers


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="quasicross", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_shape(p):
        p.add_argument("--kplus", type=_positive_int, required=True, help="forward arm length")
        p.add_argument("--kminus", type=_positive_int, required=True, help="backward arm length")

    def add_evidence(p):
        p.add_argument(
            "--no-registry",
            action="store_true",
            help="do not use the packaged certificate store as tiling evidence",
        )
        p.add_argument(
            "--certificates", help="JSON-lines certificate store to use as tiling evidence"
        )

    p = sub.add_parser("classify", help="classify every dimension up to --max-n")
    add_shape(p)
    p.add_argument("--max-n", type=_positive_int, required=True, help="largest dimension to classify")
    add_evidence(p)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("check", help="per-criterion outcomes for one dimension")
    add_shape(p)
    p.add_argument("--n", type=_positive_int, required=True, help="dimension to check")
    add_evidence(p)

    p = sub.add_parser("search", help="search for a splitter set over Z_q")
    add_shape(p)
    p.add_argument("--q", type=_positive_int, required=True, help="group order")
    p.add_argument(
        "--node-budget",
        type=_positive_int,
        default=DEFAULT_NODE_BUDGET,
        help=f"candidate placements to try before giving up (default: {DEFAULT_NODE_BUDGET})",
    )
    p.add_argument("--store", help="certificate store to append a found splitting to")

    p = sub.add_parser("verify", help="verify a certificate store line by line")
    p.add_argument(
        "--certificates",
        default=None,
        help="JSON-lines store to verify (default: the packaged store)",
    )

    p = sub.add_parser("summarize", help="classification summary and firing statistics")
    add_shape(p)
    p.add_argument("--max-n", type=_positive_int, required=True)
    add_evidence(p)

    return parser


def _evidence(args) -> tuple[tuple[Splitting, ...], tuple[Splitting, ...]]:
    """The registry and certificates that the evidence flags in args select."""
    registry = () if args.no_registry else default_registry(args.kplus, args.kminus)
    certificates = () if args.certificates is None else load_certificates(args.certificates)
    return registry, certificates


def _cmd_classify(args) -> int:
    run = classify_range(args.kplus, args.kminus, args.max_n, *_evidence(args))
    render = {"text": report_text, "csv": report_csv, "json": report_json}[args.format]
    sys.stdout.write(render(run))
    return 0


def _cmd_check(args) -> int:
    memo = Verdicts(args.kplus, args.kminus, args.n, *_evidence(args))
    # classify_range over 1..n stops at the first evidence dimension where a
    # criterion fires.  Classifying the evidence dimensions below n in
    # ascending order raises that same contradiction: each reaches only
    # smaller dimensions, whose evidence is then classified already.
    for m in sorted(m for m in memo.evidence if m < args.n):
        memo.verdict(QuasiCrossShape(args.kplus, args.kminus, m))
    shape = QuasiCrossShape(args.kplus, args.kminus, args.n)
    # Every row is printed, and the verdict is the first that fires.
    rows = tuple(outcomes(shape, memo))
    verdict = memo.verdict(shape, (out for out in rows if out.fired))
    print(f"shape ({args.kplus},{args.kminus}) n={args.n} q={verdict.q}")
    if verdict.source is not None:
        print(f"verdict: {verdict.status.value} ({verdict.source.value})")
    else:
        print(f"verdict: {verdict.status.value}")
    print("criteria:")
    width = max(len(cid) for cid in CRITERION_ORDER)
    for out in rows:
        wtxt = witness_text(out.witness)
        line = f"  {out.criterion_id:<{width}}  {out.status.value:<12}  {wtxt}".rstrip()
        print(line)
    return 0


def _cmd_search(args) -> int:
    if args.q <= args.kplus + args.kminus:
        raise _UsageError(f"q must exceed kplus + kminus, got q={args.q}")
    if args.store is not None:
        # A store the append would fail on is refused before the search
        # runs and prints its result.  Path("") is the current directory.
        store = Path(args.store)
        if store.is_dir():
            raise _UsageError(f"--store must name a file, got {args.store!r}")
        if not store.parent.is_dir():
            raise _UsageError(f"--store must name a file in an existing directory, got {args.store!r}")
        if store.exists():
            load_certificates(store)  # a store that fails to load exits 2
    multipliers = interval_multipliers(args.kplus, args.kminus, args.q)
    start = time.perf_counter()
    outcome = find_splitting(args.q, multipliers, node_budget=args.node_budget)
    elapsed = time.perf_counter() - start
    print(f"status: {outcome.status.value}")
    print(f"q: {args.q}")
    print(f"multipliers: -{args.kminus}..{args.kplus}")
    if outcome.splitters is not None:
        print("splitters: " + " ".join(map(str, outcome.splitters)))
    if outcome.diagnostic:
        print(f"note: {outcome.diagnostic}")
    print(f"nodes: {outcome.nodes}")
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if outcome.status is SearchStatus.FOUND and args.store is not None:
        cert = Splitting(args.q, args.kplus, args.kminus, outcome.splitters)
        if store_certificate(cert, args.store):
            print(f"stored certificate in {args.store}", file=sys.stderr)
        else:
            print(f"certificate already present in {args.store}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    path = default_certificates_path() if args.certificates is None else args.certificates
    certs = load_certificates(path)  # raises on the first bad certificate
    for i, cert in enumerate(certs, start=1):
        print(f"certificate {i}: ok q={cert.q} arms=({cert.k_plus},{cert.k_minus}) n={cert.dimension}")
    print(f"{len(certs)} certificate(s) verified")
    return 0


def _cmd_summarize(args) -> int:
    sys.stdout.write(summarize(args.kplus, args.kminus, args.max_n, *_evidence(args)).to_text())
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "check": _cmd_check,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "summarize": _cmd_summarize,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        if "kplus" in args:
            try:
                check_arms(args.kplus, args.kminus)
            except ValueError:
                raise _UsageError(
                    f"arms must satisfy 1 <= kminus <= kplus, got ({args.kplus}, {args.kminus})"
                ) from None
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad certificate stores and malformed inputs are verification
        # failures; everything else ValueError-ish is treated the same way.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # An input too large for this machine, such as a search whose
        # candidate table does not fit: refused like the 64-bit limit.
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
