"""Command-line interface: evaluate, classify, witness, scan, selfcheck.

Exit codes are uniform across subcommands: 0 for success (value in S, scan
clean), 1 for a semantic negative (value not in S, violations found), 2 for
usage errors including out-of-envelope inputs.

JSON output is line oriented, one document per line, with stable field
names: value, status, class, params, witness, verified (plus reason on
rejections).  Integer values are rendered as decimal strings so consumers
never squeeze them through a float.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import Even15, Even16, NotInS, OddA, OddOne, classify
from .core import derive
from .errors import EnvelopeExceededError, FactorizationError, NotAttainableError
from .gdet import beta_gamma_norms, det4, det16_factored, spectral_factors
from .witness import witness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _certificate_fields(cls):
    if isinstance(cls, OddOne):
        return "odd_16m_plus_1", {"m": str(cls.m)}
    if isinstance(cls, OddA):
        return "set_A", {
            "j": str(cls.j),
            "k": str(cls.k),
            "p1": str(cls.p1),
            "p2": str(cls.p2),
            "p3": str(cls.p3),
        }
    if isinstance(cls, Even15):
        return "pow2_15", {"p": str(cls.p), "cofactor": str(cls.odd_cofactor)}
    if isinstance(cls, Even16):
        return "pow2_16", {"m": str(cls.m)}
    raise TypeError(f"no document form for {cls!r}")


def _document(n, cls, witness_vec=None) -> dict:
    if isinstance(cls, NotInS):
        return {
            "value": str(n),
            "status": "not_in_S",
            "class": None,
            "params": {},
            "reason": str(cls.reason),
            "witness": None,
            "verified": False,
        }
    klass, params = _certificate_fields(cls)
    return {
        "value": str(n),
        "status": "in_S",
        "class": klass,
        "params": params,
        "witness": list(witness_vec) if witness_vec is not None else None,
        "verified": witness_vec is not None,
    }


def _emit_document(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
        return
    if doc["status"] == "in_S":
        params = " ".join(f"{k}={v}" for k, v in doc["params"].items())
        print(f"in_S {doc['class']} {params}".rstrip())
        if doc["witness"] is not None:
            print("witness:", " ".join(str(x) for x in doc["witness"]))
            print("verified:", "true" if doc["verified"] else "false")
    else:
        print(f"not_in_S {doc['reason']}")


def _cmd_eval(args) -> int:
    a = tuple(args.coefficients)
    value = det16_factored(a)
    print(value)
    if args.explain:
        b, c, d = derive(a)
        norms = beta_gamma_norms(d)
        print(f"det4(b) = {det4(*b)}  with b = {b}")
        print(f"det4(c) = {det4(*c)}  with c = {c}")
        print(f"beta_norm = {norms.beta_norm}")
        print(f"gamma_norm = {norms.gamma_norm}")
        for k, (re, im) in enumerate(spectral_factors(a)):
            print(f"spectral factor {k}: {re}{im:+d}i")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cls = classify(args.value)
    _emit_document(_document(args.value, cls), args.json)
    return EXIT_OK if not isinstance(cls, NotInS) else EXIT_NEGATIVE


def _cmd_witness(args) -> int:
    try:
        vec, cls = witness(args.value)
    except NotAttainableError as exc:
        _emit_document(_document(args.value, NotInS(exc.reason)), args.json)
        return EXIT_NEGATIVE
    _emit_document(_document(args.value, cls, witness_vec=vec), args.json)
    return EXIT_OK


def _parse_support(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad support list {text!r}") from exc


def _within_floors(command: str, floors) -> bool:
    """False, after one stderr line, if some (flag, value, least) has value < least."""
    for flag, value, least in floors:
        if value is not None and value < least:
            print(f"{command}: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return False
    return True


def _cmd_scan(args) -> int:
    from .verification import scan_exhaustive, scan_random

    floors = (
        ("--random", args.random, 1),
        ("--bound", args.bound, 0),
        ("--limit", args.limit, 1),
        ("--jobs", args.jobs, 1),
    )
    if not _within_floors("scan", floors):
        return EXIT_USAGE
    if args.random is not None and args.support is not None:
        print("scan: --support and --random cannot be combined", file=sys.stderr)
        return EXIT_USAGE
    if args.random is not None:
        mode, foreign = "--random", (("--limit", args.limit),)
    elif args.support is not None:
        mode, foreign = "--support", (("--bound", args.bound), ("--seed", args.seed))
    else:
        print("scan: one of --support or --random is required", file=sys.stderr)
        return EXIT_USAGE
    for flag, value in foreign:
        if value is not None:
            print(f"scan: {flag} cannot be used with {mode}", file=sys.stderr)
            return EXIT_USAGE
    if args.random is not None:
        bound = 9 if args.bound is None else args.bound
        seed = 0 if args.seed is None else args.seed
        report = scan_random(args.random, bound, seed, jobs=args.jobs)
    else:
        report = scan_exhaustive(args.support, limit=args.limit, jobs=args.jobs)
    print(report.summary())
    for line in report.json_lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_selfcheck(args) -> int:
    from .verification import scan_random, window_roundtrip

    if not _within_floors("selfcheck", (("--samples", args.samples, 1),)):
        return EXIT_USAGE
    scan = scan_random(args.samples, 9, args.seed)
    print("oracle agreement:", scan.summary())
    window = window_roundtrip(range(-args.samples, args.samples + 1))
    print("witness round-trip:", window.summary())
    for line in scan.json_lines():
        print(line)
    for line in window.json_lines():
        print(line)
    return EXIT_OK if scan.ok and window.ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4x4det",
        description="Exact integer group determinants on the 4x4 bicyclic group: "
        "evaluate, classify attainable values, and synthesize witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="determinant of 16 integer coefficients")
    p_eval.add_argument("coefficients", nargs=16, type=int, metavar="A")
    p_eval.add_argument("--explain", action="store_true",
                        help="also print every factor of the product form")
    p_eval.set_defaults(fn=_cmd_eval)

    p_cls = sub.add_parser("classify", help="decide whether a value is attainable")
    p_cls.add_argument("value", type=int)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(fn=_cmd_classify)

    p_wit = sub.add_parser("witness", help="coefficients realizing a value")
    p_wit.add_argument("value", type=int)
    p_wit.add_argument("--json", action="store_true")
    p_wit.set_defaults(fn=_cmd_witness)

    p_scan = sub.add_parser("scan", help="classify determinants of many tuples")
    p_scan.add_argument("--support", type=_parse_support,
                        help="comma-separated entries, e.g. '0,1' or '-1,0,1'")
    p_scan.add_argument("--limit", type=int, default=None,
                        help="cap on the number of tuples for --support scans")
    p_scan.add_argument("--random", type=int, default=None, metavar="N",
                        help="number of seeded random tuples")
    p_scan.add_argument("--bound", type=int, default=None,
                        help="entry bound for --random scans (default 9)")
    p_scan.add_argument("--seed", type=int, default=None,
                        help="seed for --random scans (default 0)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="worker processes, capped at the CPU count")
    p_scan.set_defaults(fn=_cmd_scan)

    p_self = sub.add_parser("selfcheck", help="oracle agreement + witness round-trip")
    p_self.add_argument("--samples", type=int, default=1000)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EnvelopeExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
