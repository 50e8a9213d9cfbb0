#!/usr/bin/env python3
"""Regenerate the golden reports for every corpus spec.

Each spec pins two reports: `<stem>.report.json` from `verify` and
`<stem>.oracle.json` from `oracle`, both at the spec's own sampling.
Reports are deterministic for a fixed spec (seed included), so the
files written here are stable regression pins; rerunning this script on
an unchanged tree must be a no-op.  Each report is written twice in
this process: the first time with an empty kernel cache, the second
time with every kernel of the job already compiled; the script exits 1
if the two writes differ.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from ricciplane import cli, expr

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
        # Every corpus spec's symbolic derivatives agree with the
        # finite-difference oracle, failing verify verdicts included.
        verify_exit = 1 if spec.name in FAILING_CORPUS else 0
        for command, suffix, expected in (("verify", ".report.json", verify_exit), ("oracle", ".oracle.json", 0)):
            out = REPORTS / (spec.stem + suffix)
            before = out.read_text() if out.exists() else None
            written = []
            expr._template.cache_clear()
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--spec", str(spec), "--out", str(out)])
                if code != expected:
                    print(f"unexpected exit {code} from {command} for {spec.name}", file=sys.stderr)
                    return 1
                written.append(out.read_bytes())
            if written[1] != written[0]:
                print(f"{command} for {spec.name} wrote other bytes the second time", file=sys.stderr)
                return 1
            if out.read_text() != before:
                changed.append(out.name)
    print(f"{'updated ' + ', '.join(changed) if changed else 'all reports unchanged'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
