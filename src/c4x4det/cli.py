"""Command-line interface: evaluate, classify, witness, scan, selfcheck.

Exit codes are uniform across subcommands: 0 for success (value in S, scan
clean), 1 for a semantic negative (value not in S, violations found), 2 for
usage errors including out-of-envelope inputs, and for output that cannot
be written (stdout on a full device or a closed pipe: one ``error: cannot
write output:`` line on stderr, no traceback).

The argument grammar is one table, ``_GRAMMAR``: per command, its integer
positionals, its value options with their defaults, and its switches.
``--opt value`` and ``--opt=value`` both work and take the value token as it
stands, so ``--support -1,0,1`` works; the last of a repeated option wins.
Options and positionals may come in any order, ``--`` ends the options, and
a token that ``int()`` accepts is a positional even when it starts with
``-`` (``classify -375``).  Option names are spelled in full.  ``-h`` or
``--help`` prints ``USAGE`` and exits 0; any other bad argv prints usage and
one ``c4x4det <command>: error:`` line on stderr and exits 2.

JSON output is line oriented, one document per line, with stable field
names: value, status, class, params, witness, verified (plus reason on
rejections).  Integer values are rendered as decimal strings so consumers
never squeeze them through a float.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .classifier import Even15, Even16, NotInS, OddA, OddOne, classify
from .core import derive
from .errors import EnvelopeExceededError, FactorizationError, NotAttainableError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# The help text; the README's "Command line" block is the same text.
USAGE = """\
c4x4det eval A0 A1 ... A15 [--explain]     # determinant (optionally per factor)
c4x4det classify N [--json]                # membership certificate or reason
c4x4det witness N [--json]                 # certificate plus realizing tuple
c4x4det scan --support 0,1 [--limit K] [--jobs J]
c4x4det scan --random N [--bound B] [--seed S] [--jobs J]
c4x4det selfcheck [--samples K] [--seed S]
"""


def witness(n):
    """``c4x4det.witness.witness``, imported on the first call so ``classify`` never loads it."""
    from .witness import witness as synthesize

    return synthesize(n)


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
        import json

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
    from .gdet import det16_factored, factored_pieces, spectral_factors

    a = tuple(args.coefficients)
    print(det16_factored(a))
    if args.explain:
        b, c, _ = derive(a)
        p = factored_pieces(a)
        print(f"det4(b) = {p[0] * p[1] * p[2]}  with b = {b}")
        print(f"det4(c) = {p[3] * p[4] * p[5]}  with c = {c}")
        print(f"beta_norm = {p[6] * p[7]}")
        print(f"gamma_norm = {p[8] * p[9]}")
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
    return tuple(int(part) for part in text.split(","))


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
        ("--seed", args.seed, 0),
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

    floors = (("--samples", args.samples, 1), ("--seed", args.seed, 0))
    if not _within_floors("selfcheck", floors):
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


# command: (handler, positional name, how many, value options with defaults, switches).
# Every value is an int except --support, a comma-separated list of ints.
_GRAMMAR = {
    "eval": (_cmd_eval, "coefficients", 16, {}, ("explain",)),
    "classify": (_cmd_classify, "value", 1, {}, ("json",)),
    "witness": (_cmd_witness, "value", 1, {}, ("json",)),
    "scan": (
        _cmd_scan,
        None,
        0,
        {"support": None, "limit": None, "random": None, "bound": None, "seed": None, "jobs": 1},
        (),
    ),
    "selfcheck": (_cmd_selfcheck, None, 0, {"samples": 1000, "seed": 0}, ()),
}


def _usage_error(command, message):
    """Exit 2 after the command's usage lines and one error line, both on stderr."""
    lines = [line.partition("#")[0].rstrip() for line in USAGE.splitlines()
             if command is None or line.split()[1] == command]
    print("usage: " + "\n       ".join(lines), file=sys.stderr)
    print(f"c4x4det{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _convert(command, label, text, kind):
    try:
        return kind(text)
    except ValueError:
        what = "support list" if kind is _parse_support else "integer"
        _usage_error(command, f"{label}invalid {what} {text!r}")


def _is_option(token) -> bool:
    """A token names an option when it starts with '-' and int() rejects it."""
    if token[:1] != "-":
        return False
    try:
        int(token)
    except ValueError:
        return True
    return False


def _parse(argv):
    """(handler, namespace of its arguments) for ``argv``, or SystemExit.

    Help exits 0 with ``USAGE`` on stdout; any other bad argv exits 2 with
    nothing on stdout.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        sys.stdout.write(USAGE)
        raise SystemExit(EXIT_OK)
    if command not in _GRAMMAR:
        _usage_error(None, "missing command" if command is None else f"unknown command {command!r}")
    handler, name, count, options, switches = _GRAMMAR[command]
    values = dict(options, **dict.fromkeys(switches, False))
    positionals = []
    options_done = False
    for token in tokens:
        if options_done or not _is_option(token):
            if len(positionals) == count:
                _usage_error(command, f"unexpected argument {token!r}")
            positionals.append(_convert(command, "", token, int))
        elif token == "--":
            options_done = True
        elif token in ("-h", "--help"):
            sys.stdout.write(USAGE)
            raise SystemExit(EXIT_OK)
        else:
            flag, eq, text = token.partition("=")
            key = flag[2:]
            if flag[:2] != "--" or key not in values:
                _usage_error(command, f"unknown option {flag!r}")
            if key in switches:
                if eq:
                    _usage_error(command, f"{flag} takes no value, got {token!r}")
                values[key] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None:
                    _usage_error(command, f"{flag} needs a value")
            kind = _parse_support if key == "support" else int
            values[key] = _convert(command, f"{flag}: ", text, kind)
    if len(positionals) != count:
        _usage_error(command, f"expected {count} integer argument{'s' * (count > 1)}, "
                              f"got {len(positionals)}")
    if count:
        values[name] = positionals[0] if count == 1 else positionals
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (EnvelopeExceededError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """``main`` on ``sys.argv``, with stdout flushed before the exit status is set.

    A failed write to stdout (a full device, a closed pipe) is one stderr
    line and exit 2, never a traceback or the exit 1 of "not in S".  Stdout
    is then pointed at ``os.devnull``, so the interpreter's own flush at
    exit has nothing left to fail on.  A process started without a file
    descriptor 1 has no ``sys.stdout``: ``print`` writes nothing, and the
    exit status still gives the answer.
    """
    try:
        try:
            code = main()
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    run()
