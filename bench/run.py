"""Benchmark of the ricci CLI, driven in-process through
ricciplane.cli.main(argv) from one process and one thread.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Each run sets up (imports ricciplane, writes the workload's spec files,
runs one untimed warm-up job) several times and reports the median, then
runs whole rounds of the workload's jobs until --seconds have passed,
checking every job's output.  Every timed job and set-up is preceded
by a fixed reference loop, and its time is scaled to the reference
machine's speed (see `Clock`).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1
each job runs untraced and then traced (the order alternating by
round), the run reports the per-layer ones, and writes the spans to
bench/out/.

Standard library only; it starts no subprocess or thread, and removes
its temporary spec directory on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from jobs import WORKLOADS
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7
# The reference loop runs REFERENCE_STEPS steps.  REFERENCE_MS, about
# its time on a quiet 2.1 GHz Xeon vCPU with Python 3.11, only sets the
# scale of the reported times: they are the times of a machine that runs
# the loop in exactly REFERENCE_MS.
REFERENCE_STEPS = 25
REFERENCE_MS = 2.0


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op, self.a, self.b = op, a, b


def _tree(depth: int, k: int = 0) -> _Node:
    if depth == 0:
        return _Node("x") if k % 2 else _Node("c", 0.5 + k)
    node = _Node("+" if (depth + k) % 2 else "*", _tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))
    return _Node(("sin", "exp")[k % 2], node) if depth % 3 == 0 else node


def _copy(n: _Node) -> _Node:
    if n.op in ("x", "c"):
        return _Node(n.op, n.a)
    return _Node(n.op, _copy(n.a), None if n.b is None else _copy(n.b))


def _evaluate(n: _Node, x: float) -> float:
    op = n.op
    if op == "x":
        return x
    if op == "c":
        return n.a
    if op == "+":
        return _evaluate(n.a, x) + _evaluate(n.b, x)
    if op == "*":
        return _evaluate(n.a, x) * _evaluate(n.b, x)
    if op == "sin":
        return math.sin(_evaluate(n.a, x))
    return math.exp(min(_evaluate(n.a, x), 50.0))


_REFERENCE_TREE = _tree(6)  # 136 nodes


def reference_loop() -> float:
    """A fixed piece of pure-Python work shaped like the program's own:
    copy an expression tree and evaluate the copy recursively.  It
    tracks the machine's speed for the program more closely than a flat
    arithmetic loop does."""
    acc = 0.0
    for i in range(REFERENCE_STEPS):
        acc += _evaluate(_copy(_REFERENCE_TREE), 0.01 * i)
    return acc


class Clock:
    """Times pieces of work at the reference machine's speed.

    The speed of a shared machine drifts by a fifth and more between
    minutes, with CPU time moving along with wall time, so a run's raw
    times say as much about the machine as about the program.  Right
    before each piece of work the clock times the reference loop, once
    or, after a long piece, as often as fits in LOOP_SHARE of that
    piece's time.  A piece's wall and CPU times are scaled by
    REFERENCE_MS over the median loop wall and CPU time among the loops
    run before it and before its WINDOW neighbours on either side; the
    median keeps one interrupted loop from skewing a piece."""

    WINDOW = 2
    LOOP_SHARE = 0.02

    def __init__(self):
        reference_loop()  # the first call warms the interpreter up
        self.samples: list[tuple[float, float, list]] = []
        self._loops: list[tuple[float, float]] = []

    def start(self) -> None:
        """Time the reference loop, for the piece of work that follows."""
        budget = self.LOOP_SHARE * self.samples[-1][0] if self.samples else 0.0
        self._loops = []
        begin = time.perf_counter()
        while not self._loops or time.perf_counter() - begin < budget:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            reference_loop()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            self._loops.append((wall1 - wall0, cpu1 - cpu0))

    def add(self, wall: float, cpu: float) -> None:
        """Record the raw wall and CPU seconds of the piece just done."""
        self.samples.append((wall, cpu, self._loops))

    def raw(self) -> tuple[list[float], list[float]]:
        return [s[0] for s in self.samples], [s[1] for s in self.samples]

    def scaled(self) -> tuple[list[float], list[float]]:
        """(wall, cpu) seconds of every piece at the reference speed."""
        walls, cpus = [], []
        for i, (wall, cpu, _) in enumerate(self.samples):
            loops = [loop for s in self.samples[max(0, i - self.WINDOW) : i + self.WINDOW + 1] for loop in s[2]]
            walls.append(wall * 1e-3 * REFERENCE_MS / statistics.median(w for w, _ in loops))
            cpus.append(cpu * 1e-3 * REFERENCE_MS / statistics.median(c for _, c in loops))
        return walls, cpus


def import_cli():
    """Import ricciplane.cli afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "ricciplane" or n.startswith("ricciplane.")]:
        del sys.modules[name]
    cli = importlib.import_module("ricciplane.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "ricciplane":
        raise ImportError(f"ricciplane imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


class Runner:
    """Runs and checks jobs; keeps the times of untraced jobs in
    `clock` and of traced ones in `traced_walls`."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.round_no = 0
        self.attempted = 0
        self.failed = 0
        self.seeded_hits = 0
        self.correct = True
        self.traced_walls: list[float] = []
        self.clock = Clock()
        self.outcomes: dict[str, tuple[str, str, list]] = {}
        self.reported: set[str] = set()
        self.tracer = Tracer()
        self.trees: list[tuple[int, int, int]] = []

    def rounds(self, seconds: float, traced: bool = False) -> None:
        """Whole rounds until `seconds` have passed.  With `traced`, each
        job runs untraced and traced in turn, the two orders alternating
        by round."""
        start = time.perf_counter()
        while True:
            order = (False, True) if self.round_no % 2 == 0 else (True, False)
            for job in self.workload.jobs(self.round_no):
                for trace in order if traced else (False,):
                    self.run(job, trace)
            self.round_no += 1
            if time.perf_counter() - start >= seconds:
                return

    def run(self, job, traced: bool = False) -> None:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        tracing = self.tracer if traced else contextlib.nullcontext()
        if traced:
            job_id = len(self.traced_walls)
            main = lambda argv: self.tracer.run_job(job_id, lambda: self.cli.main(argv))  # noqa: E731
        error = None
        if not traced:
            self.clock.start()
        with tracing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                code = main(job.argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                code, error = None, traceback.format_exc(limit=3)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            self.traced_walls.append(wall1 - wall0)
            self.trees.append(self.tracer.take_trees())
        else:
            self.clock.add(wall1 - wall0, cpu1 - cpu0)
        self.attempted += 1
        kind, label, problems = ("unexpected", "unexpected", [f"raised {error}"]) if error else self.judge(job, code, out.getvalue())
        if kind == "ok":
            return
        if kind == "known" and not job.fault_counts:
            self.seeded_hits += 1
            label += " on a seeded draw, not counted in failed"
        else:
            self.failed += 1
            self.correct = self.correct and kind == "known"
        if job.key not in self.reported:
            self.reported.add(job.key)
            print(f"{job.key} ({label}): {'; '.join(problems[:3])}", file=sys.stderr)

    def judge(self, job, code: int, text: str) -> tuple[str, str, list]:
        """Check a report, or compare it with the earlier run of its key.
        Returns (kind, label, problems): kind "ok", "known" when the
        job's known fault alone explains the problems, or "unexpected"."""
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        if job.key in self.outcomes:
            earlier, outcome = self.outcomes[job.key]
            return outcome if digest == earlier else ("unexpected", "unexpected", ["report differs from an earlier run of the same job"])
        try:
            report = json.loads(text) if text.strip() else {}
            problems = job.check(code, report)
            outcome = ("ok", "", [])
            if problems:
                mended = job.fault.mend(code, report) if job.fault else None
                if mended is not None and not job.check(*mended):
                    outcome = ("known", job.fault.name, problems)
                else:
                    outcome = ("unexpected", "unexpected", problems)
        except Exception as exc:  # noqa: BLE001 - a malformed report is a failed check
            outcome = ("unexpected", "unexpected", [f"check raised {exc!r}"])
        self.outcomes[job.key] = (digest, outcome)
        return outcome


def setup(workload_cls, seed: int, tmp: Path):
    """Import ricciplane, write the spec files and run the warm-up job,
    SETUP_REPEATS times; return (cli, workload, the set-ups' Clock)."""
    clock = Clock()
    for i in range(SETUP_REPEATS):
        gc.collect()
        clock.start()
        start = time.perf_counter()
        cli = import_cli()
        workload = workload_cls(ROOT, seed)
        work = tmp / f"setup{i}"
        work.mkdir()
        warmup = workload.prepare(work)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(warmup)
        clock.add(time.perf_counter() - start, 0.0)
        if code != 0:
            raise RuntimeError(f"warm-up job {warmup} exited {code}")
    return cli, workload, clock


def end_to_end(runner: Runner, setup: Clock) -> dict:
    """The end-to-end metrics, at the reference speed."""
    walls, cpus = runner.clock.scaled()
    raw_walls, raw_cpus = runner.clock.raw()
    print(f"unscaled: job_ms_p50 {1e3 * statistics.median(raw_walls):.4g}, "
          f"job_cpu_ms_p50 {1e3 * statistics.median(raw_cpus):.4g}, "
          f"setup_s {statistics.median(setup.raw()[0]):.4g}", file=sys.stderr)
    return {
        "jobs_per_s": len(walls) / sum(walls),
        "job_ms_p50": 1e3 * statistics.median(walls),
        "job_cpu_ms_p50": 1e3 * statistics.median(cpus),
        "setup_s": statistics.median(setup.scaled()[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner) -> dict:
    totals = runner.tracer.self_times()
    jobs = len(runner.traced_walls)
    metrics = {}
    for name in [*LAYERS, "job"]:
        seconds, calls = totals.get(name, (0.0, 0))
        label = "cli.self" if name == "job" else name
        metrics[f"{label}.ms"] = 1e3 * seconds / jobs
        metrics[f"{label}.calls"] = calls / jobs
    tree, objects, shapes = (sum(counts) for counts in zip(*runner.trees))
    metrics["numeric.sample_points.accepted"] = sum(runner.tracer.accepted.values()) / jobs
    metrics["expr.tree_nodes"] = tree / jobs
    metrics["expr.unique_nodes"] = objects / jobs
    metrics["expr.unique_shapes"] = shapes / jobs
    metrics["expr.sharing"] = objects / tree if tree else 1.0
    untraced = sum(runner.clock.raw()[0])
    metrics["trace.overhead_pct"] = 100.0 * (sum(runner.traced_walls) / untraced - 1.0)
    return metrics


def bench(args, tmp: Path, declared: dict) -> dict:
    cli, workload, setup_clock = setup(WORKLOADS[args.workload], args.seed, tmp)
    runner = Runner(cli, workload)
    if not args.trace:
        runner.rounds(args.seconds)
        metrics = end_to_end(runner, setup_clock)
    else:
        runner.rounds(args.seconds, traced=True)
        metrics = per_layer(runner)
        runner.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    if runner.seeded_hits:
        print(f"{runner.seeded_hits} seeded-draw hits of known faults, not counted in failed", file=sys.stderr)
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ricciplane" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"no ricciplane checkout at {ROOT}: src/ricciplane and corpus/ are needed", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = config["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="specs-", dir=OUT) as tmp:
            result = bench(args, Path(tmp), declared)
    except (ImportError, OSError, RuntimeError) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(f"{args.workload}: {result['attempted']} jobs, {result['failed']} failed, correct={result['correct']}",
          file=sys.stderr)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
