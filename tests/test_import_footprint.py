"""A fresh CLI process imports no stdlib module that only some paths need:
`dataclasses` (and with it `inspect` and `ast`), `typing`, `pathlib`,
and `csv` and `traceback` outside `--emit-grid` and the crash path."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import ricciplane
from conftest import CORPUS

HEAVY = ("dataclasses", "inspect", "ast", "typing", "pathlib", "csv", "traceback")

# Prints the heavy modules loaded after the import and after a verify run.
PROGRAM = """
import contextlib, io, sys
heavy = sys.argv[1].split(",")
import ricciplane.cli
print(*sorted(m for m in heavy if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = ricciplane.cli.main(["verify", "--spec", sys.argv[2]])
print(*sorted(m for m in heavy if m in sys.modules))
print(code)
"""


def test_cli_imports_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(Path(ricciplane.__file__).resolve().parent.parent))
    argv = [sys.executable, "-S", "-c", PROGRAM, ",".join(HEAVY), str(CORPUS / "ex03_cosh_metric.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    after_import, after_verify, code = done.stdout.split("\n")[:3]
    assert after_import == ""
    assert after_verify == ""
    assert code == "0"
