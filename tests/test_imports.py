"""Start-up footprint: each command imports only the code it runs.

The package re-exports the scan harness lazily (PEP 562), so ``import
c4x4det`` and the one-shot ``classify`` / ``witness`` commands never load
``c4x4det.verification`` or the process pool behind ``scan --jobs``.  The
records are not dataclasses, so no command loads ``dataclasses`` or the
``inspect`` module it imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c4x4det
from c4x4det import verification

SRC = Path(c4x4det.__file__).resolve().parent.parent
WATCHED = (
    "c4x4det.verification",
    "concurrent.futures.process",
    "multiprocessing",
    "dataclasses",
    "inspect",
)

# Each case is one fresh interpreter: a statement, then the watched modules it loaded.
FOOTPRINTS = [
    ("import c4x4det", set()),
    (
        "import contextlib, io\n"
        "from c4x4det import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '17']) == 0\n"
        "    assert cli.main(['witness', '17', '--json']) == 0\n",
        set(),
    ),
    (
        "import contextlib, io\n"
        "from c4x4det import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['scan', '--random', '5']) == 0\n",
        {"c4x4det.verification"},
    ),
]


@pytest.mark.parametrize("statement, loaded", FOOTPRINTS, ids=["import", "classify+witness", "scan"])
def test_command_footprint(statement, loaded):
    script = (
        statement
        + "\nimport json, sys\n"
        + f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])) == loaded


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
        # as after a bare ``import c4x4det``: the harness not yet imported
        monkeypatch.delattr(c4x4det, "verification")
        monkeypatch.delitem(sys.modules, "c4x4det.verification")
        assert c4x4det.verification is sys.modules["c4x4det.verification"]
        assert c4x4det.scan_random is c4x4det.verification.scan_random

    def test_dir_lists_the_lazy_names(self):
        assert set(c4x4det.__all__) | {"verification"} <= set(dir(c4x4det))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            c4x4det.no_such_name
        assert not hasattr(c4x4det, "no_such_name")
