"""Record the outputs the benchmark compares against, from the current code.

    PYTHONPATH=src python3 bench/record_goldens.py

Writes ``bench/goldens.json``: stdout and exit code of every CLI case of the
``cli_oneshot`` workload, and the distinct-value count of the
``exhaustive_scan`` request.  Re-record only when a change is meant to alter
these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# One value per family and per rejection reason, small and near the 10^12 envelope.
CLASSIFY_VALUES = (
    17,
    -375,
    163840,  # 2^15 * 5
    196608,  # 2^16 * 3
    0,
    3,  # odd, bad residue
    25,  # 9 mod 16, no set-A decomposition
    2,  # even, bad valuation
    98304,  # 2^15 * 3, no prime 5 mod 8
    10**13,  # outside the envelope: exit 2
    999999999985,  # 16m + 1
    999999999625,  # set A
    -999999999719,  # set A, negative
    999999995904,  # 2^16 * m
    999999897600,  # 2^15 * p * odd
    -999999999999,  # 16m + 1, negative
)
WITNESS_VALUES = (
    17,
    -375,
    163840,
    196608,
    0,
    3,
    999999999985,
    999999999625,
    -999999999719,
    999999995904,
    999999897600,
)
EXHAUSTIVE_LIMITS = (4096,)


def cli_cases():
    cases = [["classify", str(n)] for n in CLASSIFY_VALUES]
    cases += [["witness", str(n), "--json"] for n in WITNESS_VALUES]
    return cases


def main() -> int:
    from c4x4det import scan_exhaustive

    env = dict(os.environ, PYTHONPATH="src")
    golden_cli = []
    for case in cli_cases():
        proc = subprocess.run(
            [sys.executable, "-m", "c4x4det", *case], env=env, capture_output=True, timeout=60
        )
        golden_cli.append({"argv": case, "stdout": proc.stdout.decode(), "code": proc.returncode})
    doc = {
        "cli": golden_cli,
        "exhaustive_distinct": {
            str(limit): scan_exhaustive((-1, 0, 1), limit=limit).distinct_values
            for limit in EXHAUSTIVE_LIMITS
        },
    }
    path = Path(__file__).parent / "goldens.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}: {len(golden_cli)} CLI cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
