"""Cold-start wall time of CLI commands, in fresh processes, in two checkouts.

    python3 scripts/cold_start.py --base ../before --head . --pairs 10 --repeats 5

Each timed process is a fresh `python -S` (this interpreter; `-S` keeps
the site packages and their `.pth` files out) with PYTHONPATH set to the
checkout's `src`, running what the `ricci` console script runs:
`curvature`, `verify`, `identities` and `oracle` on every spec of the
head checkout's `corpus/` (or those named by --spec), plus two probes,
`bare` (an empty program) and `import` (`import ricciplane.cli`).
Bytecode is written to and read from a temporary PYTHONPYCACHEPREFIX,
one per side, with PYTHONDONTWRITEBYTECODE unset; one untimed run of
every case on each side fills that cache and records the exit code and
output, and the two sides must agree on both.

Pair k times every case `--repeats` times in each checkout, the base
side first in even pairs and the head side in odd ones.  A case's time
in a pair is the min over its repeats, and a command's time in a pair
is the sum over specs of those mins.  The file BENCH_cold_start.json (in
--out-dir) records, for each command and probe, each side's per-pair
times with their median and quartiles (inclusive method) and the number
of pairs the head side was faster in, and for each case the min over
all pairs on each side; also each side's `git rev-parse HEAD` and
whether its tree differs from that commit, and the Python version.
Exits 1 if the sides disagree on an exit code or an output.

Standard library only; run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("curvature", "verify", "identities", "oracle")
PROBES = {"bare": "pass", "import": "import ricciplane.cli"}
RUN_CLI = "import sys; from ricciplane.cli import main; sys.exit(main())"


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def _summary(side: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(side, n=4, method="inclusive") if len(side) > 1 else side * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the code before the change")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the code after the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per case, side and pair")
    parser.add_argument("--spec", action="append", metavar="NAME", help="a corpus spec, without .json (default: all)")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    corpus = sides["head"] / "corpus"
    specs = [corpus / f"{name}.json" for name in args.spec] if args.spec else sorted(corpus.glob("*.json"))
    cases = [(probe, None, ["-c", code]) for probe, code in PROBES.items()]
    cases += [(c, s.stem, ["-c", RUN_CLI, c, "--spec", str(s)]) for c in COMMANDS for s in specs]

    with tempfile.TemporaryDirectory() as tmp:
        env = {}
        for name, path in sides.items():
            env[name] = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
            env[name].update(PYTHONPATH=str(path / "src"), PYTHONPYCACHEPREFIX=os.path.join(tmp, name))

        def run(side: str, argv: list[str], **kw) -> subprocess.CompletedProcess:
            # No timeout: with one, the wait polls in sleeps of up to 50 ms.
            return subprocess.run([sys.executable, "-S", *argv], cwd=tmp, env=env[side], **kw)

        same = True
        for name, spec, argv in cases:
            seen = {side: run(side, argv, capture_output=True) for side in sides}
            outputs = {side: (p.returncode, p.stdout, p.stderr) for side, p in seen.items()}
            if outputs["base"] != outputs["head"]:
                same = False
                print(f"{name} {spec}: the sides differ in exit code or output", file=sys.stderr)

        # times[side][case index][pair] = min over repeats, in ms
        times = {side: [[] for _ in cases] for side in sides}
        for k in range(args.pairs):
            for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                for i, (_, _, argv) in enumerate(cases):
                    best = float("inf")
                    for _ in range(args.repeats):
                        start = time.perf_counter()
                        run(side, argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                        best = min(best, time.perf_counter() - start)
                    times[side][i].append(1e3 * best)
            print("pair", k, {s: round(sum(t[-1] for t in times[s]), 1) for s in sides}, file=sys.stderr)

    record = {
        "python": sys.version,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "sides": {
            name: {"commit": _git(path, "rev-parse", "HEAD"), "dirty": bool(_git(path, "status", "--porcelain"))}
            for name, path in sides.items()
        },
        "pairs": args.pairs,
        "repeats": args.repeats,
        "unit": "ms",
        "outputs_equal": same,
        "commands": {},
        "cases": [],
    }
    for command in (*PROBES, *COMMANDS):
        rows = [i for i, case in enumerate(cases) if case[0] == command]
        per_pair = {side: [sum(times[side][i][k] for i in rows) for k in range(args.pairs)] for side in sides}
        record["commands"][command] = {
            **{side: {"per_pair": values, **_summary(values)} for side, values in per_pair.items()},
            "head_wins": sum(h < b for b, h in zip(per_pair["base"], per_pair["head"])),
        }
    for i, (name, spec, _) in enumerate(cases):
        best = {side: min(times[side][i]) for side in sides}
        record["cases"].append({"command": name, "spec": spec, **best, "change": best["head"] / best["base"] - 1})
    out = args.out_dir / "BENCH_cold_start.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}; outputs equal: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
