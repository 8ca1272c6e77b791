"""Start-up footprint: each command imports only the code it runs.

The package re-exports the determinant routes, the witness synthesizer and
the scan harness lazily (PEP 562), so ``import c4x4det`` and ``classify``
load none of ``c4x4det.gdet``, ``c4x4det.witness``, ``c4x4det.verification``
or ``json``; ``eval`` adds ``gdet``, ``witness --json`` adds ``gdet``,
``witness`` and ``json``, and only ``scan`` loads the harness.  The process
pool behind ``scan --jobs`` is loaded only by a scan on more than one
process.  The records are not dataclasses, so no command loads
``dataclasses`` or the ``inspect`` module it imports, and the command line
is parsed from one grammar table, so no command loads ``argparse``.  The
set-A certificate takes its cofactor divisor in closed form, and
``signed_divisors_1mod8`` expands the divisors of a factorization in a list,
so neither loads ``heapq``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c4x4det
from c4x4det import gdet, numtheory, verification

SRC = Path(c4x4det.__file__).resolve().parent.parent
WATCHED = (
    "c4x4det.gdet",
    "c4x4det.witness",
    "c4x4det.verification",
    "json",
    "concurrent.futures.process",
    "multiprocessing",
    "dataclasses",
    "inspect",
    "argparse",
    "heapq",
)


def run_fresh(statement: str, result: str) -> str:
    """Last stdout line of a fresh interpreter that runs ``statement``, then prints ``result``."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = f"{statement}\nprint(repr({result}))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def cli_run(*argv) -> str:
    return (
        "import contextlib, io\n"
        "from c4x4det import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


# Each case is one fresh interpreter: a statement, then the watched modules it
# loaded beyond those the bare interpreter had (a ``site`` hook may import json).
FOOTPRINTS = {
    "import": ("import c4x4det", set()),
    "classify": (cli_run("classify", "17"), set()),
    "classify-set-a": (cli_run("classify", "-809264000935"), set()),
    "witness": (cli_run("witness", "17", "--json"), {"c4x4det.gdet", "c4x4det.witness", "json"}),
    "signed-divisors": (
        "from c4x4det import signed_divisors_1mod8\nsigned_divisors_1mod8(45)", set()
    ),
    "eval": (cli_run("eval", *"2 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1".split()), {"c4x4det.gdet"}),
    "scan": (
        cli_run("scan", "--random", "5"),
        {"c4x4det.gdet", "c4x4det.witness", "c4x4det.verification", "json"},
    ),
}


@pytest.mark.parametrize("statement, loaded", FOOTPRINTS.values(), ids=FOOTPRINTS)
def test_command_footprint(statement, loaded):
    statement = f"import sys\nbare = set(sys.modules)\n{statement}"
    result = f"sorted(m for m in {WATCHED!r} if m in sys.modules and m not in bare)"
    assert set(ast.literal_eval(run_fresh(statement, result))) == loaded


# Importing the submodule ``c4x4det.witness`` binds it on the package under the
# name of the function it defines; the package must keep the function.
FIRST_IMPORTS = [
    "import c4x4det.witness",
    "from c4x4det.witness import plan",
    "import c4x4det.witness as w",
    "from c4x4det import witness",
]


@pytest.mark.parametrize("first", FIRST_IMPORTS)
def test_witness_stays_the_function_in_any_import_order(first):
    statement = f"{first}\nimport sys, c4x4det"
    result = (
        '(c4x4det.witness is sys.modules["c4x4det.witness"].witness, '
        "c4x4det.witness(17)[1])"
    )
    assert run_fresh(statement, result) == "(True, OddOne(m=1))"


class TestLazyExports:
    def test_every_public_name_resolves(self):
        for name in c4x4det.__all__:
            assert getattr(c4x4det, name) is not None, name
        namespace: dict = {}
        exec("from c4x4det import *", namespace)
        assert set(c4x4det.__all__) <= set(namespace)

    def test_harness_names_are_the_verification_objects(self):
        assert c4x4det.scan_random is verification.scan_random
        for name in ("ScanReport", "scan_exhaustive", "window_roundtrip"):
            assert getattr(c4x4det, name) is getattr(verification, name)

    def test_submodule_loads_on_attribute_access(self, monkeypatch):
        for module, name in (("verification", "scan_random"), ("gdet", "det16_direct"),
                             ("witness", "plan")):
            # as after a bare ``import c4x4det``: the submodule not yet imported
            monkeypatch.delattr(c4x4det, module)
            monkeypatch.delitem(sys.modules, f"c4x4det.{module}")
            assert getattr(c4x4det, name) is getattr(sys.modules[f"c4x4det.{module}"], name)
            loaded = sys.modules[f"c4x4det.{module}"]
            assert getattr(c4x4det, module) is (loaded.witness if module == "witness" else loaded)

    def test_dir_lists_the_lazy_names(self):
        assert set(c4x4det.__all__) | {"verification"} <= set(dir(c4x4det))

    @pytest.mark.parametrize("name", ["det4", "beta_gamma_norms", "BetaGammaNorms"])
    def test_removed_factored_names_raise(self, name):
        # the closed forms live in gdet.factored_pieces; references in tests/oracles.py
        for module in (c4x4det, gdet):
            with pytest.raises(AttributeError, match=name):
                getattr(module, name)

    def test_removed_divisor_walk_raises(self):
        # signed_divisors_1mod8 expands the divisors itself
        with pytest.raises(AttributeError, match="divisors_ascending"):
            numtheory.divisors_ascending

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            c4x4det.no_such_name
        assert not hasattr(c4x4det, "no_such_name")
