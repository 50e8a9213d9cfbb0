"""Interleaved before/after pairs of the benchmark, run in two checkouts.

    python3 scripts/bench_pairs.py --base ../before --head . --name kernel_shapes \\
        --pairs dense=10 --pairs corpus=10 --pairs family=10 --seed 500

Pair k of a workload runs `bench/run.py --workload W --seed SEED+k
--seconds T --trace 0` once in each checkout, T being the `run_seconds`
of the head checkout's BENCHMARK.json, each run a subprocess of this
interpreter in its checkout directory; the base side goes first in
even pairs and the head side in odd ones.  The file BENCH_<name>.json
(in --out-dir) records every run's last-line JSON with its seed and
seconds, each side's `git rev-parse HEAD` and whether its tree differs
from that commit and whether its `src/ricciplane/__pycache__` holds
bytecode, the Python version, and for each workload and metric the
medians and quartiles (inclusive method) of each side and the number of
pairs the head side won, by the direction BENCHMARK.json gives the
metric.  Exits 1 if any run fails or reports "correct": false.

A side that imports cached bytecode skips compiling the package and
reads lower `peak_rss_mb` (about 0.4 MB) than one that compiles it from
source, so when one side holds bytecode and the other does not the
script runs nothing and exits 2; remove that `__pycache__`, or compile
the other side (`python3 -m compileall src`), and run it again.

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
from pathlib import Path


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def _has_bytecode(checkout: Path) -> bool:
    return any((checkout / "src" / "ricciplane" / "__pycache__").glob("*.pyc"))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}")
    return {"seed": seed, "seconds": seconds, "result": json.loads(lines[-1])}


def _summary(side: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(side, n=4, method="inclusive") if len(side) > 1 else side * 3
    return {"median": median, "q1": q1, "q3": q3}


def _compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the head side's pair wins."""
    out = {}
    for metric in pairs[0]["base"]["result"]["metrics"]:
        base = [p["base"]["result"]["metrics"][metric]["value"] for p in pairs]
        head = [p["head"]["result"]["metrics"][metric]["value"] for p in pairs]
        entry = {"base": _summary(base), "head": _summary(head), "better": better.get(metric)}
        if metric in better:
            sign = 1 if better[metric] == "higher" else -1
            entry["head_wins"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        out[metric] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the code before the change")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the code after the change")
    parser.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N", help="N pairs of WORKLOAD")
    parser.add_argument("--seed", type=int, default=500, help="pair k runs at seed SEED+k")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    bytecode = {name: _has_bytecode(path) for name, path in sides.items()}
    if bytecode["base"] != bytecode["head"]:
        held = {name: "holds" if has else "holds no" for name, has in bytecode.items()}
        print(
            f"base {held['base']} bytecode in src/ricciplane/__pycache__ and head {held['head']}: "
            "peak_rss_mb would read the difference, so nothing was run",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    seconds = spec["run_seconds"]
    record = {
        "python": sys.version,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "sides": {
            name: {
                "commit": _git(path, "rev-parse", "HEAD"),
                "dirty": bool(_git(path, "status", "--porcelain")),
                "bytecode": bytecode[name],
            }
            for name, path in sides.items()
        },
        "workloads": {},
    }
    correct = True
    for item in args.pairs:
        workload, _, count = item.partition("=")
        pairs = []
        for k in range(int(count)):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _run(sides[side], workload, args.seed + k, seconds)
                correct = correct and pair[side]["result"].get("correct") is True
            pairs.append(pair)
            print(workload, k, {s: pair[s]["result"]["metrics"] for s in ("base", "head")}, file=sys.stderr)
        record["workloads"][workload] = {"pairs": pairs, "metrics": _compare(pairs, better)}
    out = args.out_dir / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}; every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
