"""The three in-process workloads: seeded inputs, one call per request, checks.

Each workload object turns the workload seed into a request stream
(``request(i)`` gives the i-th call; requests are made in order), checks every
result against facts the benchmark establishes on its own (``check``), and
describes each outcome in a record line, so that an untraced and a traced run
of the same requests can be compared.  Only the generated inputs reach the
package.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from functools import cache
from math import isqrt
from pathlib import Path

from c4x4det.classifier import Even15, Even16, NotInS, OddA, OddOne
from c4x4det.errors import NotAttainableError

# The modules themselves: the package re-exports functions under some of these names.
classifier, gdet, verification, witness = (
    importlib.import_module(f"c4x4det.{name}")
    for name in ("classifier", "gdet", "verification", "witness")
)

ENVELOPE = 10**12
GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


class Outcome:
    """What one request did: ops it covered, ops that failed, and why."""

    __slots__ = ("ops", "failed", "error", "record", "accepted", "route_mismatches")

    def __init__(self, ops, failed=0, error=None, record=""):
        self.ops, self.failed, self.error, self.record = ops, failed, error, record
        self.accepted = ops
        self.route_mismatches = 0


# ``rss_requests``: peak RSS is read after this many requests, a fixed amount of
# work that a 10-second run reaches even on a machine running at half speed,
# so the figure does not depend on how fast the run went.  The classify
# cache's dict grows at about 5.5k, 10.9k and 21.8k entries; each count keeps
# the distinct values it leaves in the cache clear of those sizes.


class OracleScan:
    """scan_random over bound-9 tuples: all three routes plus unbounded classify."""

    name = "oracle_scan"
    root_span = "verification.scan_random"
    ops_per_request = 32
    rss_requests = 220
    bound = 9

    def __init__(self, seed: int):
        self.seed = seed

    def scan_seed(self, i: int) -> int:
        return self.seed * (1 << 24) + i

    def request(self, i):
        return verification.scan_random, (self.ops_per_request, self.bound, self.scan_seed(i))

    def check(self, i, report) -> Outcome:
        size = self.ops_per_request
        bad = len(report.violations) + abs(size - report.tuples_checked)
        error = None
        if bad:
            error = f"scan seed {self.scan_seed(i)}: {report.summary()}"
        out = Outcome(size, min(bad, size), error, f"{sorted(report.seen_values)}")
        out.route_mismatches = sum(
            str(detail).startswith("determinant routes disagree")
            for _, _, detail in report.violations
        )
        return out


class ExhaustiveScan:
    """The first tuples of the lexicographic {-1,0,1} scan, re-run request after request.

    The prefix is fixed by definition, so the seed does not change the
    inputs; the distinct-value count is checked against a recorded golden.
    """

    name = "exhaustive_scan"
    root_span = "verification.scan_exhaustive"
    support = (-1, 0, 1)
    ops_per_request = 4096
    rss_requests = 40

    def __init__(self, seed: int):
        self.golden = GOLDENS["exhaustive_distinct"][str(self.ops_per_request)]

    def request(self, i):
        return verification.scan_exhaustive, (self.support, self.ops_per_request)

    def check(self, i, report) -> Outcome:
        size = self.ops_per_request
        ok = (
            report.ok
            and report.tuples_checked == size
            and report.distinct_values == self.golden
        )
        error = None if ok else f"{report.summary()} (golden {self.golden} distinct)"
        return Outcome(size, 0 if ok else size, error, f"{sorted(report.seen_values)}")


# --- witness_mix inputs -----------------------------------------------------


@cache
def _primes_5mod8(limit: int) -> list:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit + 1) if flags[p] and p % 8 == 5]


STRATA = ("odd_16m_plus_1", "set_a", "pow2_15", "pow2_16", "uniform")


def _set_a_value(rng) -> int:
    p1, p2, p3 = sorted(rng.choice(_primes_5mod8(2_000)) for _ in range(3))
    room = isqrt(ENVELOPE // (p1 * p2 * p3))  # bound for each of |8j+1| and |8k-3|
    j = rng.randint(-((room + 1) // 8), (room - 1) // 8)
    k = rng.randint(-((room - 3) // 8), (room + 3) // 8)
    l, m, n = ((p + 3) // 8 for p in (p1, p2, p3))
    if (j - k - l - m - n) % 2 == 0:  # set A needs j != k + l + m + n (mod 2)
        j = j + 1 if 8 * (j + 1) + 1 <= room else j - 1
    return (8 * j + 1) * (8 * k - 3) * p1 * p2 * p3


def _stratum_value(rng, stratum: str) -> int:
    if stratum == "odd_16m_plus_1":
        return 16 * rng.randint(-(ENVELOPE // 16), ENVELOPE // 16) + 1
    if stratum == "set_a":
        return _set_a_value(rng)
    if stratum == "pow2_15":
        p = rng.choice(_primes_5mod8(30_000))
        half = ENVELOPE // (2**15 * p) // 2
        return 2**15 * p * (2 * rng.randint(-half, half) + 1)
    if stratum == "pow2_16":
        return 2**16 * rng.randint(-(ENVELOPE // 2**16), ENVELOPE // 2**16)
    return rng.randint(-ENVELOPE, ENVELOPE)


def witness_value(rng, stratum: str) -> int:
    """A value of the stratum inside the envelope (redrawn at the rounding edges)."""
    while True:
        n = _stratum_value(rng, stratum)
        if abs(n) <= ENVELOPE:
            return n


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def required_verdict(n: int, stratum: str):
    """True/False when membership of n is known without factoring, else None."""
    if stratum != "uniform":
        return True  # constructed members
    if n == 0:
        return True
    if n % 2:
        return {1: True, 9: None}.get(n % 16, False)
    v = _v2(n)
    return None if v == 15 else v >= 16


def reconstruct(cls):
    """The value a certificate names, with its prime parameters checked for 5 mod 8."""
    if isinstance(cls, OddOne):
        return 16 * cls.m + 1
    if isinstance(cls, OddA):
        primes = (cls.p1, cls.p2, cls.p3)
        if any(p % 8 != 5 for p in primes) or list(primes) != sorted(primes):
            return None
        return (8 * cls.j + 1) * (8 * cls.k - 3) * cls.p1 * cls.p2 * cls.p3
    if isinstance(cls, Even15):
        if cls.p % 8 != 5 or cls.odd_cofactor % 2 == 0:
            return None
        return 2**15 * cls.p * cls.odd_cofactor
    if isinstance(cls, Even16):
        return 2**16 * cls.m
    return None


def _witness_or_rejection(n: int):
    try:
        return witness.witness(n)
    except NotAttainableError as exc:
        return exc


class WitnessMix:
    """witness(n) on values drawn evenly from five strata inside the envelope."""

    name = "witness_mix"
    root_span = "witness.witness"
    ops_per_request = 1
    rss_requests = 15_000

    def __init__(self, seed: int, corrupt: bool = False):
        self.rng = random.Random(seed)
        self.corrupt = corrupt
        self.current = None  # (value, stratum) of the request in flight

    def request(self, i):
        stratum = STRATA[i % len(STRATA)]
        self.current = (witness_value(self.rng, stratum), stratum)
        return _witness_or_rejection, (self.current[0],)

    def check(self, i, result) -> Outcome:
        n, stratum = self.current
        required = required_verdict(n, stratum)
        out = Outcome(1, record=f"{n}:")
        if isinstance(result, NotAttainableError):
            out.accepted = 0
            out.record += str(result.reason)
            if required is True:
                out.failed, out.error = 1, f"{stratum} value {n} rejected: {result}"
            return out
        vec, cls = result
        if self.corrupt and i == 0:
            vec = (vec[0] + 1,) + tuple(vec[1:])
        out.record += f"{cls}:{list(vec)}"
        problems = []
        if required is False:
            problems.append("accepted a value outside the set")
        if reconstruct(cls) != n:
            problems.append(f"certificate {cls} does not reconstruct it")
        if len(vec) != 16 or gdet.det16_factored(vec) != n:
            out.route_mismatches = 1
            problems.append(f"witness {list(vec)} does not evaluate to it")
        if problems:
            out.failed, out.error = 1, f"{stratum} value {n}: " + "; ".join(problems)
        return out


IN_PROCESS = {w.name: w for w in (OracleScan, ExhaustiveScan, WitnessMix)}


# --- tracing ------------------------------------------------------------------

FAMILY = {
    OddOne: "odd_16m_plus_1",
    OddA: "set_a",
    Even15: "pow2_15",
    Even16: "pow2_16",
    NotInS: "not_in_s",
}


def install(tracer) -> None:
    """Wrap, in each module's namespace, the public functions it calls across layers.

    The cli module is wrapped only when it is already imported, so the other
    workloads' processes do not load it.  Classify spans are named by outcome: ``classifier.cold.<family>`` for the
    first call on a value, ``classifier.hit`` for repeats.
    """
    seen = set()

    def note_classify(tracer, args, result):
        if args[0] in seen:
            return "classifier.hit"
        seen.add(args[0])
        return f"classifier.cold.{FAMILY[type(result)]}"

    def note_divisors(tracer, args, result):
        tracer.counts["numtheory.divisors_returned"] += len(result)

    def note_plan(tracer, args, result):
        tracer.counts[f"witness.case.{result.case.value}"] += 1

    cli = sys.modules.get("c4x4det.cli")
    for module in (verification, witness, cli):
        if module is not None:
            tracer.patch(module, "classify", "classifier.classify", note_classify)
    for route in ("det16_direct", "det16_spectral", "det16_factored"):
        tracer.patch(verification, route, f"gdet.{route}")
    tracer.patch(gdet, "derive", "core.derive")
    tracer.patch(classifier, "factorize", "numtheory.factorize")
    tracer.patch(classifier, "signed_divisors_1mod8", "numtheory.signed_divisors", note_divisors)
    tracer.patch(witness, "plan", "witness.plan", note_plan)
    tracer.patch(witness, "emit", "witness.emit")
    tracer.patch(witness, "det16_direct", "gdet.det16_direct")
    tracer.patch(witness, "det16_direct", "witness.recheck")
    for rep in ("two_squares_2p", "two_squares_prime_5mod8"):
        tracer.patch(witness, rep, "numtheory.two_squares")
    if cli is not None:
        tracer.patch(cli, "witness", "witness.witness")

