"""Golden outputs: stdout, stderr and exit code of fixed CLI runs and of the four demos.

Every case runs in this process (the CLI through ``cli.main``, the demos
through ``runpy``), so a ``python -O`` test run checks the same outputs
without ``assert`` statements.  Only the elapsed-seconds fields of scan
summaries are masked; everything else must match byte for byte.

The goldens live in ``tests/golden.json``.  Re-record them only when a change
is meant to alter these outputs, and say so in the change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from c4x4det import cli

GOLDEN = Path(__file__).with_name("golden.json")
DEMOS = Path(__file__).resolve().parent.parent / "demos"

EVAL_TUPLES = (
    "2 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "3 1 1 1 1 1 2 1 2 1 1 1 1 1 1 1",
    "0 0 0 0 1 1 0 0 0 -1 0 0 0 0 0 0",
    "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1",
    "9 -3 0 7 -8 2 5 -1 4 -6 3 0 -2 8 -9 1",
    "1000000000 -999999999 7 0 0 0 0 0 5 0 0 -3 0 0 0 123456789",
)

# One value per witness case (all 14), then rejections, signs and the envelope.
VALUES = (
    17,  # odd_16m_plus_1
    65536,  # pow2_16_4m_plus_1
    196608,  # pow2_16_4m_minus_1
    131072,  # pow2_16_even
    163840,  # pow2_15_4m_plus_1
    491520,  # pow2_15_4m_minus_1
    -375,  # a_even_even_pair5
    10985,  # a_even_even_pair13
    12025,  # a_even_odd_pair5
    81289,  # a_even_odd_pair13
    6825,  # a_odd_even_pair5
    46137,  # a_odd_even_pair13
    9625,  # a_odd_odd_pair5
    65065,  # a_odd_odd_pair13
    0,
    -15,
    3,  # odd, bad residue
    25,  # 9 mod 16, no set-A decomposition
    2,  # even, bad valuation
    98304,  # 2^15 * 3, no prime 5 mod 8
    999999999625,  # set A near the envelope
    -999999999719,
    999999897600,  # 2^15 * p * odd near the envelope
    98295840768,  # 2^15 * 999917 * 3: a prime just below 10^6
    1239372425,  # set A with the prime 7013
    -922179077671,  # set A with the primes 2029, 2053, 2069
    10**13,  # outside the envelope: exit 2, no stdout
)


def _cases() -> dict:
    cases = {}
    for k, coeffs in enumerate(EVAL_TUPLES):
        cases[f"eval-explain-{k}"] = ("cli", ["eval", "--explain", *coeffs.split()])
    for n in VALUES:
        cases[f"classify-json-{n}"] = ("cli", ["classify", "--json", "--", str(n)])
        cases[f"witness-json-{n}"] = ("cli", ["witness", "--json", "--", str(n)])
    cases["scan-support"] = ("cli", ["scan", "--support=-1,0,1", "--limit", "4096"])
    for seed in range(4):
        cases[f"scan-random-seed{seed}"] = (
            "cli", ["scan", "--random", "300", "--seed", str(seed)]
        )
    cases["selfcheck-50"] = ("cli", ["selfcheck", "--samples", "50"])
    # every option floor, two bad floors in one argv (the first in floor
    # order is named), each scan-mode error and one parse error: stderr only
    for name, argv in (
        ("scan-floor-random", ["--random", "0"]),
        ("scan-floor-bound", ["--random", "5", "--bound", "-1"]),
        ("scan-floor-limit", ["--support", "0,1", "--limit", "0"]),
        ("scan-floor-jobs", ["--random", "5", "--jobs", "0"]),
        ("scan-floor-seed", ["--random", "5", "--seed", "-1"]),
        ("scan-floor-two", ["--jobs", "0", "--bound", "-1"]),
        ("scan-mode-missing", []),
        ("scan-mode-both", ["--support", "0,1", "--random", "5"]),
        ("scan-mode-random-limit", ["--random", "5", "--limit", "3"]),
        ("scan-mode-support-bound", ["--support", "0,1", "--bound", "3"]),
        ("scan-mode-support-seed", ["--support", "0,1", "--seed", "3"]),
    ):
        cases[name] = ("cli", ["scan", *argv])
    cases["selfcheck-floor-two"] = ("cli", ["selfcheck", "--samples", "0", "--seed", "-1"])
    cases["parse-error"] = ("cli", ["classify", "seventeen"])
    for demo in sorted(DEMOS.glob("*.py")):
        cases[f"demo-{demo.stem}"] = ("demo", [demo.name])
    return cases


CASES = _cases()

# ScanReport.summary ends in ", 1.23s".
_ELAPSED = re.compile(r", \d+\.\d\ds$", re.MULTILINE)


def run_case(kind: str, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if kind == "cli":
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        else:
            runpy.run_path(str(DEMOS / argv[0]), run_name="__main__")
            code = 0
    return {
        "code": code,
        "stdout": _ELAPSED.sub(", <elapsed>s", out.getvalue()),
        "stderr": err.getvalue(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(golden, name):
    kind, argv = CASES[name]
    assert run_case(kind, argv) == golden[name]


def _record() -> None:
    doc = {name: run_case(kind, argv) for name, (kind, argv) in CASES.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
