#!/usr/bin/env python3
"""Run the verifier over every corpus spec and print a verdict table.

Exit status is nonzero if any spec's verdict differs from the expected
one: fail for the specs in FAILING_CORPUS of tests/conftest.py (the
list the test suite uses), pass for every other spec.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from ricciplane import cli

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
sys.path.insert(0, str(REPO / "tests"))
from conftest import FAILING_CORPUS  # the verdicts the test suite expects


def main() -> int:
    failures = 0
    print(f"{'spec':44} {'verdict':8} {'flat':5} max residual")
    for spec in sorted(CORPUS.glob("*.json")):
        if spec.name.endswith(".derived.json"):
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["verify", "--spec", str(spec)])
        report = json.loads(buffer.getvalue())
        expected = 1 if spec.name in FAILING_CORPUS else 0
        status = "ok" if code == expected else "UNEXPECTED"
        if code != expected:
            failures += 1
        print(
            f"{spec.name:44} {report['verdict']:8} {str(report['flat']):5} "
            f"{max(report['residual_max']):.3e}  {status if status != 'ok' else ''}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
