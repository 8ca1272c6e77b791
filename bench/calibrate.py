"""A fixed piece of pure-Python work that tells how fast the CPU runs right now.

On a shared 2-vCPU VM the CPU speed moved by up to 2x within seconds and over
minutes, with the same code and inputs, and CPU time moved with wall time, so
the slowdown was not time spent off the CPU.  Every timed phase therefore
interleaves :func:`measure` with its requests (one call after each
``CHUNK_S`` of request time) and reports times scaled to a reference speed:

    scaled = measured * REFERENCE_S / (calibration time measured alongside)

A change to ``c4x4det`` moves the measured time but not the calibration, so
the scaled figure still shows it; a slower machine moves both, and the ratio
stays.  The work resembles the program's: Bareiss elimination on small
integer matrices (the ``det16_direct`` route's method) and dict tallies (the
classify cache), all in code of the benchmark's own.

``cli_oneshot`` times whole processes, whose start-up (exec, page faults,
interpreter initialisation) tracked in-process work poorly, and which may run
on another CPU than the benchmark process.  It is scaled instead by the wall
time of a bare interpreter start, ``python -c pass``, spawned just before and
just after each CLI process; no change to ``c4x4det`` can move that.

This module imports nothing beyond ``time``, so loading it before a timed
``import c4x4det`` does not import any of the package's dependencies early.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.004  # the time of one measure() call at the reference speed
REFERENCE_SPAWN_S = 0.075  # the time of one ``python -c pass`` at the reference speed
CHUNK_S = 0.05  # request time between two calibrations


def _matrices(count=60, size=8):
    state = 12345
    out = []
    for _ in range(count):
        rows = []
        for _ in range(size):
            row = []
            for _ in range(size):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                row.append((state >> 33) % 19 - 9)
            rows.append(row)
        out.append(rows)
    return out


_MATRICES = _matrices()


def _bareiss(m) -> int:
    n = len(m)
    a = [row[:] for row in m]
    prev, sign = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _work() -> int:
    tally = {}
    for m in _MATRICES:
        v = _bareiss(m)
        for q in range(1, 60):
            key = (v % q, q)
            tally[key] = tally.get(key, 0) + 1
    return len(tally)


_CHECK = _work()


def measure() -> float:
    """Seconds one fixed piece of work takes now; the result is checked."""
    t = time.perf_counter()
    result = _work()
    dt = time.perf_counter() - t
    if result != _CHECK:
        raise RuntimeError("calibration work gave a different result")
    return dt


def factor(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Scale for a span of request time between two calibrations."""
    return reference / ((before + after) / 2)
