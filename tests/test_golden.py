"""Golden outputs: stdout, stderr and exit code of fixed CLI runs and of the four demos.

Every case runs in this process (the CLI through ``cli.main``, the demos
through ``runpy``), so a ``python -O`` test run checks the same outputs
without ``assert`` statements.  Only the elapsed-seconds fields of scan
summaries are masked; everything else must match byte for byte.

The goldens live in ``tests/golden.json``; they are the one pinned copy of
the command line's bytes.  Re-record them only when a change is meant to
alter these outputs, and say so in the change:

    PYTHONPATH=src python tests/test_golden.py --record

``--replay CMD...`` runs every ``cli`` case again as a process ``CMD argv``,
so through ``cli.run``, the console script's entry with its flush and exit
status, prints each mismatch and exits 1 on any:

    python tests/test_golden.py --replay c4x4det
    PYTHONPATH=src python tests/test_golden.py --replay python -m c4x4det
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import runpy
import subprocess
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
        cases[f"eval-{k}"] = ("cli", ["eval", *coeffs.split()])
        cases[f"eval-explain-{k}"] = ("cli", ["eval", "--explain", *coeffs.split()])
    for n in VALUES:
        for command in ("classify", "witness"):
            cases[f"{command}-json-{n}"] = ("cli", [command, "--json", "--", str(n)])
            cases[f"{command}-text-{n}"] = ("cli", [command, "--", str(n)])
    # argv forms the cases above do not use: help, no "--" (below, also
    # before a negative value), an option after the positional
    cases["help"] = ("cli", ["--help"])
    cases["classify-17"] = ("cli", ["classify", "17"])
    # the largest-offset witness in the envelope (36-bit entries)
    cases["witness-json-999999999985"] = ("cli", ["witness", "999999999985", "--json"])
    # -(5^3 * 317 * 349 * 11003): two primes named by one chunk's gcd, a
    # survivor above the trial bound, a composite cofactor
    cases["witness-json--152161862375"] = ("cli", ["witness", "--json", "--", "-152161862375"])
    # set-A certificates whose least cofactor divisor e is composite (23*43),
    # a fourth prime 5 mod 8 (613), or absent (d = 1)
    for n in (-809264000935, -7057735655, -7078317303):
        cases[f"classify-{n}"] = ("cli", ["classify", str(n)])
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


def _masked(code, out: str, err: str) -> dict:
    return {"code": code, "stdout": _ELAPSED.sub(", <elapsed>s", out), "stderr": err}


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
    return _masked(code, out.getvalue(), err.getvalue())


def replay(command: list, golden: dict, names=None) -> list:
    """One line per field in which the process ``[*command, *argv]`` differs from its golden.

    ``names`` defaults to every ``cli`` case.
    """
    if names is None:
        names = sorted(name for name, (kind, _) in CASES.items() if kind == "cli")
    mismatches = []
    for name in names:
        done = subprocess.run([*command, *CASES[name][1]], capture_output=True, text=True,
                              timeout=120)
        got = _masked(done.returncode, done.stdout, done.stderr)
        mismatches += [f"{name}: {field} {got[field]!r}, golden {want!r}"
                       for field, want in golden[name].items() if got[field] != want]
    return mismatches


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(golden, name):
    kind, argv = CASES[name]
    assert run_case(kind, argv) == golden[name]


@pytest.fixture
def module_command(monkeypatch) -> list:
    """``python -m c4x4det``, importing the package these tests import."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.getenv("PYTHONPATH")))))
    return [sys.executable, "-m", "c4x4det"]


def test_replay_agrees_on_each_exit_code(golden, module_command):
    # exit 0 with an elapsed field to mask, then exit 1 and exit 2
    names = ["scan-random-seed0", "witness-text-3", "parse-error"]
    assert [golden[name]["code"] for name in names] == [0, 1, 2]
    assert replay(module_command, golden, names) == []


def test_replay_reports_an_altered_document(golden, module_command):
    # negative control: one wrong byte in the expected stdout is one mismatch
    altered = {"classify-17": dict(golden["classify-17"], stdout="in_S odd_16m_plus_1 m=2\n")}
    assert replay(module_command, altered, ["classify-17"]) == [
        "classify-17: stdout 'in_S odd_16m_plus_1 m=1\\n', golden 'in_S odd_16m_plus_1 m=2\\n'"
    ]


def _record() -> None:
    doc = {name: run_case(kind, argv) for name, (kind, argv) in CASES.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")


def _replay(command: list) -> int:
    mismatches = replay(command, json.loads(GOLDEN.read_text()))
    for line in mismatches:
        print(line)
    print(f"{len(mismatches)} mismatches replaying through {' '.join(command)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    elif sys.argv[1:2] == ["--replay"] and sys.argv[2:]:
        sys.exit(_replay(sys.argv[2:]))
    else:
        sys.exit(__doc__)
