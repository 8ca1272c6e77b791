"""Scan harness for desk-scale consistency checks.

Two directions are exercised:

* membership scans (:func:`scan_exhaustive`, :func:`scan_random`) evaluate
  determinants of many coefficient vectors and insist the classifier accepts
  every one of them;
* :func:`window_roundtrip` walks a window of integers, synthesizing and
  re-verifying a witness for every value the classifier accepts.

Reports are plain data; violations render as one JSON object per line so a
harness can diff them.  The sampled identity checks of the paper's lemmas
live with the tests, not here.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Optional

from .classifier import NotInS, classify
from .errors import InternalMismatchError, NotAttainableError
from .gdet import det16_direct, det16_factored, det16_spectral
from .witness import witness

# Tuples per block (an exhaustive block over a wider support runs its last
# entry over the whole support).  It also fixes the random sample stream (one
# seeded generator per block), so changing it changes what scan_random draws.
_BLOCK = 4096


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
    support, prefix, count = args
    tails = islice(product(support, repeat=16 - len(prefix)), count)
    return _scan_block((prefix + tail for tail in tails), False)


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
    ``|support|**16``.  An empty support or a ``limit`` below 1 raises
    :class:`ValueError`.
    """
    supp = tuple(sorted(set(support)))
    if not supp:
        raise ValueError("support must be nonempty")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    total = len(supp) ** 16
    if limit is not None:
        total = min(total, limit)
    # A block fixes the first 16 - k entries and runs the last k over the
    # support, for the largest k >= 1 with |support|**k <= _BLOCK.  k = 0
    # would ship the whole support to a worker once per tuple.
    k = 1
    while k < 16 and len(supp) ** (k + 1) <= _BLOCK:
        k += 1
    size = len(supp) ** k
    prefixes = product(supp, repeat=16 - k)
    blocks = (
        (supp, prefix, min(size, total - lo))
        for lo, prefix in zip(range(0, total, size), prefixes)
    )
    return _run_blocks(_exhaustive_block, blocks, jobs)


def scan_random(count: int, coeff_bound: int, seed: int, jobs: int = 1) -> ScanReport:
    """Classify ``count`` seeded-random vectors with entries in [-bound, bound].

    Each sample additionally re-derives the determinant by all three routes
    and records any disagreement as a violation.  The sample stream depends
    only on ``seed`` (not on ``jobs``).  A ``count`` below 1 or a negative
    ``coeff_bound`` raises :class:`ValueError`.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if coeff_bound < 0:
        raise ValueError(f"coeff_bound must be at least 0, got {coeff_bound}")
    blocks = (
        (seed, b, min(_BLOCK, count - lo), coeff_bound)
        for b, lo in enumerate(range(0, count, _BLOCK))
    )
    return _run_blocks(_random_block, blocks, jobs)


def window_roundtrip(values: Iterable[int]) -> ScanReport:
    """Witness every attainable value in a window and re-verify it exactly.

    Each value is classified once, inside :func:`witness`; a rejected value
    is not a violation.  ``tuples_checked`` counts the witness vectors that
    passed their re-check, and ``seen_values`` holds the values they realize.
    """
    start = time.perf_counter()
    checked = 0
    violations = []
    seen = set()
    for n in values:
        try:
            witness(n, envelope=None)
        except NotAttainableError:
            continue
        except InternalMismatchError as exc:
            violations.append((None, n, f"witness failed: {exc}"))
            continue
        checked += 1
        seen.add(n)
    return _merge([(checked, violations, seen)], start)
