#!/usr/bin/env python3
"""Regenerate the golden reports for every corpus spec.

Reports are deterministic for a fixed spec (seed included), so the
files written here are stable regression pins; rerunning this script on
an unchanged tree must be a no-op.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from ricciplane import cli

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
REPORTS = CORPUS / "reports"
sys.path.insert(0, str(REPO / "tests"))
from conftest import FAILING_CORPUS  # the verdicts the test suite expects


def main() -> int:
    REPORTS.mkdir(exist_ok=True)
    changed = []
    for spec in sorted(CORPUS.glob("*.json")):
        if spec.name.endswith(".derived.json"):
            continue
        out = REPORTS / (spec.stem + ".report.json")
        before = out.read_text() if out.exists() else None
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--spec", str(spec), "--out", str(out)])
        expected = 1 if spec.name in FAILING_CORPUS else 0
        if code != expected:
            print(f"unexpected exit {code} for {spec.name}", file=sys.stderr)
            return 1
        if out.read_text() != before:
            changed.append(out.name)
    print(f"{'updated ' + ', '.join(changed) if changed else 'all reports unchanged'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
