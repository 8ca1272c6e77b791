"""Scan harness for desk-scale consistency checks.

Two directions are exercised:

* membership scans (:func:`scan_exhaustive`, :func:`scan_random`) evaluate
  determinants of many coefficient vectors and insist the classifier accepts
  every one of them.  An exhaustive block builds its tuples in C and maps
  the factored route and then the classifier over them, one call each per
  tuple; a random block draws its entries as ``randint`` would, reading
  them from the top bytes of one ``getrandbits`` call per rejection round
  when the bound is at most 127 and filtering ``getrandbits(k)`` draws when
  it is wider, then maps all three routes over its tuples, whole pass by
  whole pass, and classifies only the values on which they agree.  Both
  blocks then take their violations from one pass over the details;
* :func:`window_roundtrip` walks a window of integers, synthesizing and
  re-verifying a witness for every value the classifier accepts.

The scans build their tuples of ints themselves (an exhaustive scan checks
its support once, up front), so they call the unchecked route kernels of
:mod:`c4x4det.gdet` and the classifier's unbounded cache directly.  They
are bound here under the public names ``det16_direct``, ``det16_factored``,
``det16_spectral`` and ``classify``, and looked up as module globals on
each call, so a test or a tracer can replace them by name.

Reports are plain data; violations render as one JSON object per line so a
harness can diff them.  The sampled identity checks of the paper's lemmas
live with the tests, not here.
"""

from __future__ import annotations

import json
import os
import random
import time
from array import array
from collections import deque
from functools import lru_cache
from itertools import islice, product, repeat
from operator import sub
from typing import Iterable, Iterator, Optional

from .classifier import NotInS
from .classifier import _classify_unbounded as classify
from .core import _Record, check_coefficients
from .errors import InternalMismatchError, NotAttainableError
from .gdet import _direct as det16_direct
from .gdet import _factored as det16_factored
from .gdet import _spectral as det16_spectral
from .numtheory import check_envelope
from .witness import witness

# Tuples per block (an exhaustive block over a wider support runs its last
# entry over the whole support).  It also fixes the random sample stream (one
# seeded generator per block), so changing it changes what scan_random draws.
_BLOCK = 4096


class ScanReport(_Record):
    """Outcome of one scan: passed iff ``violations`` is empty."""

    __slots__ = ("tuples_checked", "violations", "elapsed", "seen_values")
    tuples_checked: int
    violations: tuple
    elapsed: float
    seen_values: frozenset

    @property
    def distinct_values(self) -> int:
        return len(self.seen_values)

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


# A block's details are classes, and strings for the tuples whose routes
# disagree; a rejection or a route message is a violation.
_FLAGGED = frozenset((NotInS, str))


def _violations(tuples: Iterable, values: list, details: list) -> list:
    """The ``(tuple, value, detail)`` triples whose detail flags a fault, in tuple order.

    ``details`` holds one class or route message per tuple.  A clean block
    reads the detail types once and leaves ``tuples`` unread.
    """
    if _FLAGGED.isdisjoint(map(type, details)):
        return []
    return [
        (a, value, detail)
        for a, value, detail in zip(tuples, values, details)
        if type(detail) in _FLAGGED
    ]


def _exhaustive_block(args):
    # The prefix entries enter product() as one-element factors, so each
    # 16-tuple is built in C; the tuples are regenerated, not held, for the
    # violation list, which by the theorem stays empty.
    support, prefix, count = args
    factors = [(x,) for x in prefix] + [support] * (16 - len(prefix))
    values = list(map(det16_factored, islice(product(*factors), count)))
    classes = list(map(classify, values))
    tuples = islice(product(*factors), count)
    return len(values), _violations(tuples, values, classes), set(values)


@lru_cache(maxsize=128)
def _top_byte_tables(bound):
    """``bytes.translate``'s table and delete set for a word's top byte, ``bound <= 127``.

    With ``n = 2 * bound + 1`` and ``k = n.bit_length() <= 8``, a top byte
    ``b`` holds the draw ``b >> (8 - k)``.  The delete set holds the bytes
    whose draw randint rejects (``>= n``); the table maps every other byte
    to its entry ``draw - bound`` as a signed byte.  Built once per bound,
    on first use, so importing the module builds none.
    """
    n = 2 * bound + 1
    shift = 8 - n.bit_length()
    table = bytes(((b >> shift) - bound) & 0xFF for b in range(256))
    delete = bytes(b for b in range(256) if b >> shift >= n)
    return table, delete


def _draw(rng, bound, count):
    """``count`` draws of ``rng.randint(-bound, bound)``, as one list.

    CPython's ``randint(-bound, bound)`` is ``-bound + _randbelow(n)`` with
    ``n = 2 * bound + 1``, and ``_randbelow`` calls ``getrandbits(k)``,
    ``k = n.bit_length()``, until a value falls below ``n``.  Both paths
    here run in rounds, each making exactly as many draws as entries are
    still missing, so they take the same 32-bit words in the same order,
    keep the same values and leave ``rng`` in the same state.

    For ``k <= 8`` (``bound <= 127``, which holds the benchmark's bound 9
    and the command line's default) a round is one ``getrandbits(32 * w)``
    call for its ``w`` draws.  CPython's ``getrandbits(k <= 32)`` is one
    word shifted right by ``32 - k``, and ``getrandbits(32 * w)`` packs
    ``w`` successive words, the first least significant; so every fourth
    byte of the little-endian bytes is one draw's top byte, and one
    ``bytes.translate`` drops the rejected draws and maps the rest to
    entries, all in C.  A wider draw does not fit a byte, so every other
    bound maps ``getrandbits(k)`` over the round's draws and filters them.
    CPython promises only ``random()``'s sequence across versions, so this
    is randint's stream on the running Python; the tests pin it against
    ``Random.randint`` on both sides of the switch, and pin the two
    ``getrandbits`` facts by name.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    if k <= 8:
        table, delete = _top_byte_tables(bound)
        bytewise = array("b")
        while len(bytewise) < count:
            w = count - len(bytewise)
            top = rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
            bytewise.frombytes(top.translate(table, delete))
        return bytewise.tolist()
    entries = []
    while len(entries) < count:
        draws = map(rng.getrandbits, repeat(k, count - len(entries)))
        entries += map(sub, filter(n.__gt__, draws), repeat(bound))
    return entries


def _random_block(args):
    """(checked, violations, seen values) over one block of seeded random tuples.

    The block's ``16 * size`` entries are drawn up front by :func:`_draw`,
    so the sample stream is ``randint(-bound, bound)``'s, and ``zip`` cuts
    them into 16-tuples once.  The factored, direct and spectral kernels,
    bound by name as the module docstring says, are each mapped over all
    the tuples.  When the three lists agree, ``classify`` is mapped over
    the values; otherwise one comprehension classifies each tuple whose
    routes agree and gives each other tuple a message naming the three
    values.  So each kernel is called once per tuple, ``classify`` once
    per tuple whose routes agree, and no list holds more than ``_BLOCK``
    entries.
    """
    seed, block, size, bound = args
    rng = random.Random(seed * (1 << 32) + block)
    entries = iter(_draw(rng, bound, 16 * size))
    tuples = list(zip(*[entries] * 16))
    values = list(map(det16_factored, tuples))
    directs = list(map(det16_direct, tuples))
    spectrals = list(map(det16_spectral, tuples))
    if values == directs == spectrals:
        details = list(map(classify, values))
    else:
        details = [
            classify(value) if direct == value == spectral
            else f"determinant routes disagree: direct={direct} "
            f"factored={value} spectral={spectral}"
            for value, direct, spectral in zip(values, directs, spectrals)
        ]
    return size, _violations(tuples, values, details), set(values)


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
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
        seen_values=frozenset(seen),
    )


def _run_blocks(block_fn, blocks: Iterable, jobs: int) -> ScanReport:
    """Run ``block_fn`` over ``blocks`` on at most ``os.cpu_count()`` processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    if jobs > 1:  # a serial scan never asks for os.cpu_count()
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
    ``|support|**16``.  A support entry, ``jobs`` or a ``limit`` other than
    None that is not an ``int`` (a ``bool`` or ``0.5`` is not one) raises
    :class:`TypeError` before any block runs; then an empty support, a
    ``limit`` below 1 or a ``jobs`` below 1 raises :class:`ValueError`.
    """
    entries = tuple(support)
    check_coefficients(entries)
    for x in (jobs,) if limit is None else (limit, jobs):
        check_envelope(x, None)
    supp = tuple(sorted(set(entries)))
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
    only on ``seed`` (not on ``jobs``): each block of ``_BLOCK`` tuples has
    one ``random.Random`` seeded by ``(seed, block)``, and its entries are
    that generator's ``randint(-coeff_bound, coeff_bound)`` draws on the
    running Python (CPython fixes only ``random()``'s sequence across
    versions).  Seeds are non-negative: ``random`` seeds from the absolute
    value of an int, so ``-s`` would draw the stream of ``s``.  An argument
    that is not an ``int`` (a float seed would draw a stream no int seed
    draws) raises :class:`TypeError`; then a ``count`` below 1, a negative
    ``coeff_bound``, a negative ``seed`` or a ``jobs`` below 1 raises
    :class:`ValueError`.
    """
    for x in (count, coeff_bound, seed, jobs):
        check_envelope(x, None)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if coeff_bound < 0:
        raise ValueError(f"coeff_bound must be at least 0, got {coeff_bound}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
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
    A window that yields no value raises :class:`ValueError`; one whose
    values are all rejected passes.
    """
    start = time.perf_counter()
    checked = 0
    violations = []
    seen = set()
    examined = 0
    for examined, n in enumerate(values, 1):
        try:
            witness(n, envelope=None)
        except NotAttainableError:
            continue
        except InternalMismatchError as exc:
            violations.append((None, n, f"witness failed: {exc}"))
            continue
        checked += 1
        seen.add(n)
    if not examined:
        raise ValueError("values must be nonempty")
    return _merge([(checked, violations, seen)], start)
