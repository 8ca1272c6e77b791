"""Scan harness and identity suites for desk-scale consistency checks.

Two directions are exercised:

* membership scans (:func:`scan_exhaustive`, :func:`scan_random`) evaluate
  determinants of many coefficient vectors and insist the classifier accepts
  every one of them;
* :func:`window_roundtrip` walks a window of integers, synthesizing and
  re-verifying a witness for every value the classifier accepts.

:func:`lemma_suites` bundles the congruence and valuation identities the
factorization rests on, sampled over each identity's own hypothesis class.
Reports are plain data; violations render as one JSON object per line so a
harness can diff them.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .classifier import NotInS, classify, v2
from .core import derive
from .errors import InternalMismatchError
from .gdet import (
    beta_gamma_norms,
    beta_gamma_norms_alt,
    det4,
    det16_direct,
    det16_factored,
    det16_spectral,
)
from .witness import witness

_RANDOM_BLOCK = 4096  # fixed sampling block; keeps tuples independent of --jobs


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan: passed iff ``violations`` is empty."""

    tuples_checked: int
    distinct_values: int
    violations: tuple
    elapsed: float
    seen_values: frozenset

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.tuples_checked} tuples, "
            f"{self.distinct_values} distinct values, "
            f"{len(self.violations)} violations, {self.elapsed:.2f}s"
        )

    def json_lines(self) -> Iterator[str]:
        for coeffs, value, detail in self.violations:
            yield json.dumps(
                {
                    "coefficients": None if coeffs is None else list(coeffs),
                    "value": str(value),
                    "detail": str(detail),
                },
                sort_keys=True,
            )


def _check_tuple(a, require_oracle: bool):
    """(value, violation-or-None) for one coefficient tuple."""
    value = det16_factored(a)
    if require_oracle:
        direct = det16_direct(a)
        spectral = det16_spectral(a)
        if not (direct == value == spectral):
            return value, (
                a,
                value,
                f"determinant routes disagree: direct={direct} "
                f"factored={value} spectral={spectral}",
            )
    cls = classify(value, envelope=None)
    if isinstance(cls, NotInS):
        return value, (a, value, cls)
    return value, None


def _index_tuple(index: int, support: Sequence[int]) -> tuple:
    # big-endian base-|support| digits: matches itertools.product order
    base = len(support)
    out = [support[0]] * 16
    for pos in range(15, -1, -1):
        index, digit = divmod(index, base)
        out[pos] = support[digit]
    return tuple(out)


def _scan_block(tuples: Iterable, require_oracle: bool):
    """(checked, violations, seen values) over one block of tuples."""
    checked = 0
    violations = []
    seen = set()
    for a in tuples:
        value, bad = _check_tuple(a, require_oracle)
        seen.add(value)
        checked += 1
        if bad is not None:
            violations.append(bad)
    return checked, violations, seen


def _exhaustive_block(args):
    support, start, stop = args
    return _scan_block((_index_tuple(i, support) for i in range(start, stop)), False)


def _random_block(args):
    seed, block, size, bound = args
    rng = random.Random(seed * (1 << 32) + block)
    tuples = (tuple(rng.randint(-bound, bound) for _ in range(16)) for _ in range(size))
    return _scan_block(tuples, True)


def _bounded_map(pool, block_fn, blocks, window: int) -> Iterator:
    # Executor.map submits every block at once; keep at most `window` pending.
    pending: deque = deque()
    for args in blocks:
        if len(pending) >= window:
            yield pending.popleft().result()
        pending.append(pool.submit(block_fn, args))
    while pending:
        yield pending.popleft().result()


def _merge(results, start: float) -> ScanReport:
    checked = 0
    violations = []
    seen: set = set()
    for c, v, s in results:  # merged in block order, so output is reproducible
        checked += c
        violations.extend(v)
        seen |= s
    return ScanReport(
        tuples_checked=checked,
        distinct_values=len(seen),
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
        seen_values=frozenset(seen),
    )


def _run_blocks(block_fn, blocks: Iterable, jobs: int) -> ScanReport:
    """Run ``block_fn`` over ``blocks`` on at most ``os.cpu_count()`` processes."""
    start = time.perf_counter()
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return _merge(map(block_fn, blocks), start)
    # imported here: it loads multiprocessing, which a serial scan never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _merge(_bounded_map(pool, block_fn, blocks, 2 * jobs), start)


def scan_exhaustive(
    support: Iterable[int], limit: Optional[int] = None, jobs: int = 1
) -> ScanReport:
    """Classify the determinant of every vector over ``support`` (lexicographic).

    ``limit`` caps the number of tuples; *violations* collects any vector
    whose value the classifier rejects (there should never be one).  Blocks
    are generated as they are consumed, so memory does not grow with
    ``|support|**16``.
    """
    supp = tuple(sorted(set(support)))
    if not supp:
        raise ValueError("support must be nonempty")
    total = len(supp) ** 16
    if limit is not None:
        total = min(total, limit)
    block = max(1, min(1 << 14, total))
    blocks = ((supp, lo, min(lo + block, total)) for lo in range(0, total, block))
    return _run_blocks(_exhaustive_block, blocks, jobs)


def scan_random(count: int, coeff_bound: int, seed: int, jobs: int = 1) -> ScanReport:
    """Classify ``count`` seeded-random vectors with entries in [-bound, bound].

    Each sample additionally re-derives the determinant by all three routes
    and records any disagreement as a violation.  The sample stream depends
    only on ``seed`` (not on ``jobs``).
    """
    blocks = (
        (seed, b, min(_RANDOM_BLOCK, count - lo), coeff_bound)
        for b, lo in enumerate(range(0, count, _RANDOM_BLOCK))
    )
    return _run_blocks(_random_block, blocks, jobs)


def window_roundtrip(values: Iterable[int], observed=None) -> ScanReport:
    """Witness every accepted value in a window and re-verify it exactly.

    For rejected values, optionally cross-check one-sidedly against
    ``observed`` (a set of values seen in scans): a rejected value that some
    scan produced is a violation.
    """
    start = time.perf_counter()
    checked = 0
    witnessed = 0
    violations = []
    for n in values:
        checked += 1
        cls = classify(n, envelope=None)
        if isinstance(cls, NotInS):
            if observed is not None and n in observed:
                violations.append((None, n, f"rejected value appeared in a scan: {cls}"))
            continue
        try:
            vec, _ = witness(n, envelope=None)
        except InternalMismatchError as exc:
            violations.append((None, n, f"witness failed: {exc}"))
            continue
        witnessed += 1
    return ScanReport(
        tuples_checked=checked,
        distinct_values=witnessed,
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
        seen_values=frozenset(),
    )


# --- identity suites ---------------------------------------------------------


def _rand_vec(rng, length, bound=50):
    return tuple(rng.randint(-bound, bound) for _ in range(length))


def _suite_rotation_antisymmetry(rng):
    x = _rand_vec(rng, 4)
    if det4(*x) != -det4(x[1], x[2], x[3], x[0]):
        return f"rotation antisymmetry fails for {x}"


def _suite_derived_congruences(rng):
    a = _rand_vec(rng, 16)
    spectra = derive(a)
    b, c, d = spectra
    alpha = spectra.alpha
    for i in range(4):
        if (b[i] - c[i]) % 2 or (b[i] - d[i] - d[i + 4]) % 2:
            return f"mod-2 congruence fails at {i} for {a}"
        if (b[i] + c[i] - 2 * d[i]) % 4:
            return f"sum congruence fails at {i} for {a}"
        if (b[i] - c[i] - 2 * d[i + 4]) % 4:
            return f"difference congruence fails at {i} for {a}"
        if alpha[i].re != d[i] or alpha[i].im != d[i + 4]:
            return f"alpha mismatch at {i} for {a}"


def _suite_half_swap_invariance(rng):
    d = _rand_vec(rng, 8)
    swapped = d[4:] + d[:4]
    if beta_gamma_norms(d) != beta_gamma_norms(swapped):
        return f"half-swap changes the norms for {d}"


def _suite_parity_alignment(rng):
    a = _rand_vec(rng, 16)
    b, c, d = derive(a)
    bn, gn = beta_gamma_norms(d)
    vals = (det16_factored(a), det4(*b), det4(*c), bn, gn)
    if len({v % 2 for v in vals}) != 1:
        return f"parities disagree for {a}: {[v % 2 for v in vals]}"


def _suite_norm_formula_agreement(rng):
    d = _rand_vec(rng, 8)
    if beta_gamma_norms(d) != beta_gamma_norms_alt(d):
        return f"norm formulas disagree for {d}"


def _suite_sum_square_difference(rng):
    d0, d1, d2, d3, d4, d5, d6, d7 = _rand_vec(rng, 8)
    lhs = (
        (d0 + d2) ** 2 + (d4 + d6) ** 2 + (d1 + d3) ** 2 + (d5 + d7) ** 2
    ) ** 2 - ((d0 - d2) ** 2 + (d4 - d6) ** 2 + (d1 - d3) ** 2 + (d5 - d7) ** 2) ** 2
    rhs = 8 * (
        d0**2 + d2**2 + d4**2 + d6**2 + d1**2 + d3**2 + d5**2 + d7**2
    ) * (d0 * d2 + d4 * d6 + d1 * d3 + d5 * d7)
    if lhs != rhs:
        return f"square-difference identity fails for {(d0,d1,d2,d3,d4,d5,d6,d7)}"


def _suite_cross_term_congruences(rng):
    a = _rand_vec(rng, 16)
    b, c, d = derive(a)
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    checks = (
        (2 * (d0 * d2 + d4 * d6 + d1 * d3 + d5 * d7),
         b0 * b2 + b1 * b3 + c0 * c2 + c1 * c3),
        (2 * (d0 * d7 + d2 * d5 + d4 * d3 + d6 * d1),
         b0 * b3 + b2 * b1 - c0 * c3 - c2 * c1),
        (2 * (d0 * d3 + d2 * d1 + d4 * d7 + d6 * d5),
         b0 * b3 + b2 * b1 + c0 * c3 + c2 * c1),
        (2 * (d0 * d5 + d2 * d7 + d4 * d1 + d6 * d3),
         b0 * b1 + b2 * b3 - c0 * c1 - c2 * c3),
        (2 * (d0 * d1 + d2 * d3 + d4 * d5 + d6 * d7),
         b0 * b1 + b2 * b3 + c0 * c1 + c2 * c3),
    )
    for idx, (lhs, rhs) in enumerate(checks, 1):
        if (lhs - rhs) % 4:
            return f"cross-term congruence ({idx}) fails for {a}"


def _suite_odd_pattern_mod16(rng):
    k, l, m, n = _rand_vec(rng, 4, 25)
    if (det4(2 * k + 1, 2 * l, 2 * m, 2 * n) - (8 * m + 1)) % 16:
        return f"one-odd pattern fails for {(k,l,m,n)}"
    if (det4(2 * k, 2 * l + 1, 2 * m + 1, 2 * n + 1) - (8 * (k + l + n) - 3)) % 16:
        return f"three-odd pattern fails for {(k,l,m,n)}"


def _suite_valuation_classes(rng):
    k, l, m, n = _rand_vec(rng, 4, 25)

    d_even = det4(2 * k, 2 * l, 2 * m, 2 * n)
    if (k + m - l - n) % 2:
        if d_even == 0 or v2(d_even) != 4:
            return f"all-even pattern not in 2^4*odd for {(k,l,m,n)}"
    elif d_even % 2**8:
        return f"all-even pattern not divisible by 2^8 for {(k,l,m,n)}"

    d_odd = det4(2 * k + 1, 2 * l + 1, 2 * m + 1, 2 * n + 1)
    if (k + m - l - n) % 2:
        if d_odd == 0 or v2(d_odd) != 4:
            return f"all-odd pattern not in 2^4*odd for {(k,l,m,n)}"
    elif ((k + m) * (l + n)) % 4 == 3:
        if d_odd == 0 or v2(d_odd) != 7:
            return f"all-odd pattern not in 2^7*odd for {(k,l,m,n)}"
    elif d_odd % 2**9:
        return f"all-odd pattern not divisible by 2^9 for {(k,l,m,n)}"

    d_alt = det4(2 * k, 2 * l + 1, 2 * m, 2 * n + 1)
    if (k - m) % 2 == 1 and (l - n) % 2 == 1:
        if d_alt == 0 or v2(d_alt) != 5:
            return f"alternating pattern not in 2^5*odd for {(k,l,m,n)}"
    elif (k - m) % 2 == 0 and ((2 * k + 2 * l + 1) * (2 * m + 2 * n + 1)) % 8 in (3, 5):
        if d_alt == 0 or v2(d_alt) != 6:
            return f"alternating pattern not in 2^6*odd for {(k,l,m,n)}"
    elif d_alt % 2**7:
        return f"alternating pattern not divisible by 2^7 for {(k,l,m,n)}"

    d_pair = det4(2 * k, 2 * l, 2 * m + 1, 2 * n + 1)
    if ((2 * k + 2 * m + 1) * (2 * l + 2 * n + 1)) % 8 in (3, 5):
        if d_pair == 0 or v2(d_pair) != 4:
            return f"paired pattern not in 2^4*odd for {(k,l,m,n)}"
    elif d_pair % 2**5:
        return f"paired pattern not divisible by 2^5 for {(k,l,m,n)}"


def _sample_odd_sum_split(rng):
    # coefficient vectors whose b vector has odd b0+b2+b1+b3
    while True:
        a = _rand_vec(rng, 16)
        b, c, d = derive(a)
        if (b[0] + b[2] + b[1] + b[3]) % 2:
            return a, b, c, d


def _suite_odd_product_mod16(rng):
    a, b, c, d = _sample_odd_sum_split(rng)
    s = b[0] * b[2] + b[1] * b[3] + c[0] * c[2] + c[1] * c[3]
    if (det4(*b) * det4(*c) - (1 - 4 * s)) % 16:
        return f"odd product congruence fails for {a}"


def _suite_norm_difference_mod16(rng):
    a, b, c, d = _sample_odd_sum_split(rng)
    s = b[0] * b[2] + b[1] * b[3] + c[0] * c[2] + c[1] * c[3]
    bn, gn = beta_gamma_norms(d)
    if (bn - gn - 4 * s) % 16:
        return f"norm difference congruence fails for {a}"


def _suite_constrained_norm_product(rng):
    t, u, v, w = _rand_vec(rng, 4, 20)
    e = rng.randint(0, 1)
    d = (
        2 * t - 2 * v,
        2 * t + 2 * w + 1,
        2 * t + 2 * v + 2 * e,
        2 * t - 2 * w,
        2 * u + 2 * w + 1,
        2 * u + 2 * v + 1,
        2 * u - 2 * w,
        2 * u - 2 * v,
    )
    bn, gn = beta_gamma_norms(d)
    expected = ((8 * t + 2 * e + 1) ** 2 + (8 * u + 2) ** 2) * (
        (8 * v + 2 * e + 1) ** 2 + (8 * w + 2) ** 2
    )
    if bn * gn != expected:
        return f"constrained norm product fails for {(t,u,v,w,e)}"


_SUITES: tuple = (
    ("rotation_antisymmetry", _suite_rotation_antisymmetry),
    ("derived_congruences", _suite_derived_congruences),
    ("half_swap_invariance", _suite_half_swap_invariance),
    ("parity_alignment", _suite_parity_alignment),
    ("norm_formula_agreement", _suite_norm_formula_agreement),
    ("sum_square_difference", _suite_sum_square_difference),
    ("cross_term_congruences", _suite_cross_term_congruences),
    ("odd_pattern_mod16", _suite_odd_pattern_mod16),
    ("valuation_classes", _suite_valuation_classes),
    ("odd_product_mod16", _suite_odd_product_mod16),
    ("norm_difference_mod16", _suite_norm_difference_mod16),
    ("constrained_norm_product", _suite_constrained_norm_product),
)


@dataclass(frozen=True)
class SuiteReport:
    """Per-suite sample counts and failures; passed iff no suite failed."""

    results: tuple  # of (name, samples, failures tuple)
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(not failures for _, _, failures in self.results)

    def summary(self) -> str:
        lines = []
        for name, samples, failures in self.results:
            status = "PASS" if not failures else f"FAIL ({len(failures)})"
            lines.append(f"{status}: {name} [{samples} samples]")
        lines.append(f"elapsed {self.elapsed:.2f}s")
        return "\n".join(lines)

    def json_lines(self) -> Iterator[str]:
        for name, _, failures in self.results:
            for detail in failures:
                yield json.dumps({"suite": name, "detail": detail}, sort_keys=True)


def lemma_suites(samples: int, seed: int) -> SuiteReport:
    """Run every identity suite on ``samples`` fresh draws from its hypothesis class.

    Each suite gets its own deterministic generator, so a failure replays
    from (suite name, seed) alone; the failure message carries the full input.
    """
    start = time.perf_counter()
    results = []
    for index, (name, fn) in enumerate(_SUITES):
        rng = random.Random(seed * 1_000_003 + index)
        failures = []
        for _ in range(samples):
            failure = fn(rng)
            if failure is not None:
                failures.append(failure)
        results.append((name, samples, tuple(failures)))
    return SuiteReport(tuple(results), time.perf_counter() - start)
