"""Command-line front end.

Subcommands: validate, bounds, construct, verify, spectrum, conjecture.
Sequences come inline or from a file (one per line, ``#`` comments ignored;
batch runs emit one JSON object per line).  Identical invocations produce
byte-identical output; seeds default to 0, never to the clock.  One parser
is built per process, and :func:`run` may be called again and again.

Exit codes: 0 success, 1 invalid input, 2 cap or size limit exceeded,
3 internal invariant violation (including a failing verify report).  Errors
are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable

from . import oracle
from .degseq import DegreeSequence, bounds, parse_sequence
from .errors import (
    ConstructionInvariantViolated,
    InputError,
    LimitError,
    TreeNullityError,
)
from .extremal import build_max, build_min, verify_certificate
from .oracle import DEFAULT_ENUMERATION_CAP, DEFAULT_SAMPLE_BUDGET
from .treegraph import DEFAULT_RANK_LIMIT

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_LIMIT = 2
EXIT_INVARIANT = 3


class UsageError(InputError):
    """Bad command line; mapped to the invalid-input exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); 2 means "limit" here
        raise UsageError(message)


def _at_least(low: int):
    """argparse ``type=`` for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # keeps argparse's "invalid int value" wording
    return parse


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="treenullity",
        description="Extremal nullity of tree degree sequences: formulas, "
        "certified constructions, and brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sequence_source(p: _Parser) -> None:
        p.add_argument("sequence", nargs="?", help="degree sequence, e.g. '1,1,2,2,2'")
        p.add_argument("--file", help="file with one sequence per line (# comments)")

    p = sub.add_parser("validate", help="parse and validate a sequence")
    add_sequence_source(p)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("bounds", help="closed-formula extremal values")
    add_sequence_source(p)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("construct", help="build an extremal tree with certificate")
    add_sequence_source(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--min", action="store_true", help="minimum-nullity tree")
    mode.add_argument("--max", action="store_true", help="maximum-nullity tree")
    p.add_argument("--format", choices=["json", "dot", "edges", "table"], default="json")

    p = sub.add_parser("verify", help="build both extremal trees and verify certificates")
    add_sequence_source(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--rank-limit", type=_at_least(0), default=DEFAULT_RANK_LIMIT)

    p = sub.add_parser("spectrum", help="exact nullity histogram over all realizations")
    add_sequence_source(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--jobs", type=_at_least(1), default=1)

    p = sub.add_parser("conjecture", help="scan for a witness tree per matching number")
    add_sequence_source(p)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--samples", type=_at_least(0), default=DEFAULT_SAMPLE_BUDGET)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _sequences_from_args(args) -> tuple[list[str], bool]:
    """Sequence texts plus a flag for batch (file) mode."""
    if args.file is not None and args.sequence is not None:
        raise UsageError("give an inline sequence or --file, not both")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from None
        texts = []
        for line in raw.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                texts.append(line)
        return texts, True
    if args.sequence is None:
        raise UsageError("missing sequence (inline or --file)")
    return [args.sequence], False


def _table(rows: Iterable[tuple[str, object]]) -> str:
    rows = list(rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"


# ---------------------------------------------------------------------------
# Per-command handlers: return (payload dict, text already formatted or None)
# ---------------------------------------------------------------------------


def _run_validate(s: DegreeSequence, args) -> tuple[dict, str | None]:
    b = bounds(s)
    payload = {"valid": True, "n": s.n, "degrees": list(s.degrees), "l": b.l, "m": b.m, "a": b.a}
    if args.format == "table":
        return payload, _table(payload.items())
    return payload, None


def _run_bounds(s: DegreeSequence, args) -> tuple[dict, str | None]:
    payload = bounds(s).to_json_dict()
    if args.format == "table":
        return payload, _table(payload.items())
    return payload, None


def _run_construct(s: DegreeSequence, args) -> tuple[dict, str | None]:
    cert = build_min(s) if args.min else build_max(s)
    payload = cert.to_json_dict()
    if args.format == "dot":
        return payload, cert.tree.to_dot()
    if args.format == "edges":
        return payload, cert.tree.to_edge_list()
    if args.format == "table":
        rows = [(k, v) for k, v in payload.items() if k != "tree"]
        rows.append(("edges", " ".join(f"{u}-{v}" for u, v in cert.tree.edges)))
        return payload, _table(rows)
    return payload, None


def _run_verify(s: DegreeSequence, args) -> tuple[dict, str | None]:
    min_report = verify_certificate(build_min(s), s, rank_limit=args.rank_limit)
    max_report = verify_certificate(build_max(s), s, rank_limit=args.rank_limit)
    ok = min_report.ok and max_report.ok
    payload = {
        "sequence": list(s.degrees),
        "ok": ok,
        "min": min_report.to_json_dict(),
        "max": max_report.to_json_dict(),
    }
    if args.format == "table":
        rows = [("sequence", str(s)), ("ok", ok)]
        for side, report in (("min", min_report), ("max", max_report)):
            for c in report.checks:
                rows.append((f"{side}.{c.name}", "pass" if c.passed else f"FAIL {c.detail}"))
        return payload, _table(rows)
    return payload, None


def _run_spectrum(s: DegreeSequence, args) -> tuple[dict, str | None]:
    spec = oracle.spectrum(s, cap=args.cap)
    payload = spec.to_json_dict()
    if args.format == "table":
        rows = [("sequence", str(s)), ("total", spec.total)]
        rows += [(f"nullity {k}", v) for k, v in sorted(spec.by_nullity.items())]
        rows += [(f"matching {k}", v) for k, v in sorted(spec.by_matching.items())]
        return payload, _table(rows)
    return payload, None


def _run_conjecture(s: DegreeSequence, args) -> tuple[dict, str | None]:
    scan = oracle.conjecture_scan(
        s, cap=args.cap, samples=args.samples, seed=args.seed, jobs=args.jobs
    )
    payload = scan.to_json_dict()
    if scan.exhaustive and not scan.complete:
        print(
            f"COUNTEREXAMPLE CANDIDATE: sequence {s} has no tree with matching "
            f"number in {sorted(scan.gaps)} despite exhaustive enumeration",
            file=sys.stderr,
        )
    if args.format == "table":
        rows = [
            ("sequence", str(s)),
            ("mode", payload["mode"]),
            ("nu range", f"{scan.nu_min}..{scan.nu_max}"),
            ("complete", scan.complete),
        ]
        for k in sorted(scan.witnesses):
            e = scan.witnesses[k]
            rows.append(
                (f"nu {k}", "no witness found" if e is None else " ".join(f"{u}-{v}" for u, v in e))
            )
        return payload, _table(rows)
    return payload, None


_HANDLERS = {
    "validate": _run_validate,
    "bounds": _run_bounds,
    "construct": _run_construct,
    "verify": _run_verify,
    "spectrum": _run_spectrum,
    "conjecture": _run_conjecture,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        texts, batch = _sequences_from_args(args)
        if batch and args.format != "json":
            raise UsageError("batch (--file) mode supports only --format json")
        handler = _HANDLERS[args.command]
        status = EXIT_OK
        for text in texts:
            payload, rendered = handler(parse_sequence(text), args)
            if rendered is not None and not batch:
                sys.stdout.write(rendered)
            else:
                sys.stdout.write(json.dumps(payload, check_circular=False) + "\n")
            if args.command == "verify" and not payload["ok"]:
                status = EXIT_INVARIANT
        return status
    except LimitError as exc:
        _emit_error(exc)
        return EXIT_LIMIT
    except ConstructionInvariantViolated as exc:
        _emit_error(exc)
        return EXIT_INVARIANT
    except (InputError, TreeNullityError) as exc:
        _emit_error(exc)
        return EXIT_INVALID_INPUT


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
