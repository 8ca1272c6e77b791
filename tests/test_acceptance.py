"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines print past pytest's capture, so any invocation shows
them.  The two scans are session fixtures shared by the criteria that need
them, so the heavy work runs once.
"""

import os
import time

import identities
import pytest
from oracles import brute_set_a_member

from c4x4det.classifier import NotInS, a_decompose, classify
from c4x4det.cli import main as cli_main
from c4x4det.gdet import det16_direct
from c4x4det.verification import scan_exhaustive, scan_random, window_roundtrip
from c4x4det.witness import witness

RANDOM_SEED = 42


@pytest.fixture
def report(capsys):
    """Print a criterion line on the real terminal, past pytest's capture."""

    def _emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _emit


@pytest.fixture(scope="session")
def random_scan():
    # the tuples depend only on the seed, so every job count checks the same 1e5
    return scan_random(100_000, 9, seed=RANDOM_SEED, jobs=os.cpu_count() or 1)


@pytest.fixture(scope="session")
def exhaustive_scan():
    return scan_exhaustive((0, 1))


def test_criterion_1_oracle_equivalence(random_scan, report):
    """Three determinant routes agree exactly on 1e5 seeded random vectors."""
    mismatches = [v for v in random_scan.violations if "disagree" in str(v[2])]
    ok = random_scan.tuples_checked == 100_000 and not mismatches
    report(
        f"ACCEPTANCE 1 oracle-equivalence: {'PASS' if ok else 'FAIL'} "
        f"({random_scan.tuples_checked} tuples, {len(mismatches)} mismatches, "
        f"{random_scan.elapsed:.1f}s)"
    )
    assert ok
    assert random_scan.elapsed < 600


def test_criterion_2_membership_scans(random_scan, exhaustive_scan, report):
    """No scanned determinant is ever classified as unattainable."""
    ok = exhaustive_scan.ok and random_scan.ok
    ok = ok and exhaustive_scan.tuples_checked == 2**16
    report(
        f"ACCEPTANCE 2 membership-scans: {'PASS' if ok else 'FAIL'} "
        f"(exhaustive {exhaustive_scan.tuples_checked} tuples / "
        f"{len(exhaustive_scan.violations)} violations, "
        f"random {random_scan.tuples_checked} tuples / "
        f"{len(random_scan.violations)} violations)"
    )
    assert ok
    assert exhaustive_scan.elapsed < 600


def test_criterion_3_witness_roundtrip(report):
    """Every accepted value in the stated windows gets a verified witness."""
    t0 = time.perf_counter()
    windows = []
    windows.append([16 * m + 1 for m in range(-500, 501)])
    windows.append([2**16 * m for m in range(-100, 101)])
    windows.append(
        [2**15 * p * (2 * m + 1) for p in (5, 13, 29, 37, 53, 61)
         for m in range(-20, 21)]
    )
    set_a_window = [n for n in range(-50_000, 50_001) if n % 16 == 9]
    windows.append(set_a_window)

    total_witnessed = 0
    failures = []
    for window in windows[:3]:
        rep = window_roundtrip(window)
        total_witnessed += rep.tuples_checked
        failures.extend(rep.violations)
        if rep.seen_values != set(window):  # these windows are all members
            failures.append((None, None, "window member missing a witness"))
    accepted = [n for n in set_a_window if a_decompose(n) is not None]
    for must_have in (-375, 1625, 5625):
        if must_have not in accepted:
            failures.append((None, must_have, "expected member rejected"))
    for n in accepted:
        vec, _ = witness(n)
        if det16_direct(vec) != n:
            failures.append((None, n, "witness does not reproduce the value"))
    total_witnessed += len(accepted)
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(
        f"ACCEPTANCE 3 witness-roundtrip: {'PASS' if ok else 'FAIL'} "
        f"({total_witnessed} witnesses verified, {len(failures)} failures, "
        f"{elapsed:.1f}s)"
    )
    assert ok
    assert elapsed < 600


def test_criterion_4_set_a_completeness(report):
    """a_decompose agrees with the 5-factor brute-force oracle on |n| <= 20000."""
    t0 = time.perf_counter()
    disagreements = []
    for n in range(-20_000, 20_001):
        if n % 16 != 9:
            continue
        fast = a_decompose(n) is not None
        slow = brute_set_a_member(n)
        if fast != slow:
            disagreements.append((n, fast, slow))
    elapsed = time.perf_counter() - t0
    ok = not disagreements
    report(
        f"ACCEPTANCE 4 set-A-completeness: {'PASS' if ok else 'FAIL'} "
        f"({len(disagreements)} disagreements, {elapsed:.1f}s)"
    )
    assert ok, disagreements[:5]


def test_criterion_5_reference_values(capsys, report):
    """Fixed reference tuples evaluate to their known determinants via the CLI."""
    checks = [
        ("2 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1", "17"),
        ("3 1 1 1 1 1 2 1 2 1 1 1 1 1 1 1", "327680"),
        ("1 1 1 0 0 0 1 0 1 0 0 -1 0 0 0 0", "163840"),
    ]
    bad = []
    for args, expected in checks:
        code = cli_main(["eval"] + args.split())
        out = capsys.readouterr().out.strip()
        if code != 0 or out != expected:
            bad.append((args, expected, out))
    ok = not bad
    report(f"ACCEPTANCE 5 reference-values: {'PASS' if ok else 'FAIL'} "
           f"({len(checks) - len(bad)}/{len(checks)} values)")
    assert ok, bad


def test_criterion_6_identity_suites(report):
    """Every congruence/valuation identity holds on 1e4 seeded samples."""
    t0 = time.perf_counter()
    failed = [
        identity.__name__
        for index, identity in enumerate(identities.IDENTITIES)
        if identities.failures(index, 10_000, seed=1)
    ]
    elapsed = time.perf_counter() - t0
    ok = not failed
    report(
        f"ACCEPTANCE 6 identity-suites: {'PASS' if ok else 'FAIL'} "
        f"({len(identities.IDENTITIES)} suites x 10000 samples, "
        f"failing: {failed or 'none'}, {elapsed:.1f}s)"
    )
    assert ok
    assert elapsed < 600


def test_criterion_7_negative_controls(random_scan, exhaustive_scan, report):
    """Known non-members are rejected and never appear in any scan output."""
    rejects = [9, -7, 2**14, 2**15 * 3]
    rejects += [n for n in range(-999, 1000, 2) if n % 16 not in (1, 9)]
    problems = []
    for n in rejects:
        cls = classify(n)
        if not isinstance(cls, NotInS):
            problems.append((n, "accepted", cls))
    seen = random_scan.seen_values | exhaustive_scan.seen_values
    hits = [n for n in rejects if n in seen]
    problems.extend((n, "seen in scan", None) for n in hits)
    ok = not problems
    report(
        f"ACCEPTANCE 7 negative-controls: {'PASS' if ok else 'FAIL'} "
        f"({len(rejects)} rejected values checked against "
        f"{len(seen)} scanned values, {len(problems)} problems)"
    )
    assert ok, problems[:5]
