"""One sampling pass per job: the job scope of `sample_points`."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

from ricciplane import cli, expr, numeric
from ricciplane.expr import Domain, parse
from ricciplane.numeric import DomainTooSingularError, SamplingConfig, sample_points

from conftest import CORPUS

CFG = SamplingConfig(samples=100, seed=5)
EXP = parse("exp(x1)")
COSH = parse("cosh(x1)")
SINH = parse("sinh(x1)")


def test_repeated_guard_set_returns_the_stored_list():
    unscoped = sample_points(Domain(), CFG, [EXP, COSH])
    with numeric._job_stream():
        first = sample_points(Domain(), CFG, [EXP, COSH])
        again = sample_points(Domain(), CFG, [COSH, EXP, COSH])
    assert again is first
    assert first == unscoped and first is not unscoped


def test_outside_a_scope_every_call_samples_afresh():
    assert numeric._STREAM.get() is None
    first = sample_points(Domain(), CFG, [EXP])
    assert sample_points(Domain(), CFG, [EXP]) is not first


def test_covered_subset_is_served_by_its_superset():
    # cosh >= 1 and exp >= 1/e on [-1, 1]: the superset rejects nothing.
    with numeric._job_stream():
        superset = sample_points(Domain(), CFG, [COSH, EXP])
        assert sample_points(Domain(), CFG, [EXP]) is superset
        assert sample_points(Domain(), CFG) is superset
        (table,) = numeric._STREAM.get().values()
        assert len(table) == 1
    assert superset == sample_points(Domain(), CFG, [EXP]) == sample_points(Domain(), CFG)


def test_superset_that_rejected_candidates_serves_no_subset():
    d = Domain(guard=1e-2)
    with numeric._job_stream():
        superset = sample_points(d, CFG, [SINH, EXP])
        (table,) = numeric._STREAM.get().values()
        # The rejecting pass drew the stream's head itself: it is stored
        # as the guard-less pass, which serves no guarded set.
        assert list(table) == [frozenset(map(id, [SINH, EXP])), frozenset()]
        assert table[frozenset(map(id, [SINH, EXP]))][2] > 0
        rng = random.Random(CFG.seed)
        assert table[frozenset()] == ((), list(islice(numeric._draws(d, rng), CFG.samples)), 0, rng.getstate())
        subset = sample_points(d, CFG, [EXP])
        assert len(table) == 3
    assert subset is not superset
    assert subset == sample_points(d, CFG, [EXP])
    assert subset != superset


@pytest.mark.parametrize(
    "other_d, other_cfg",
    [
        (Domain(), SamplingConfig(samples=100, seed=6)),
        (Domain(), SamplingConfig(samples=101, seed=5)),
        (Domain(x1_range=(0.0, 1.0)), CFG),
    ],
)
def test_seed_samples_and_domain_each_get_their_own_entry(other_d, other_cfg):
    with numeric._job_stream():
        first = sample_points(Domain(), CFG, [EXP])
        other = sample_points(other_d, other_cfg, [EXP])
        assert len(numeric._STREAM.get()) == 2
        # The tolerance is not part of the key.
        same = sample_points(Domain(), SamplingConfig(samples=100, seed=5, tolerance=1e-3), [EXP])
    assert same is first
    assert other != first
    assert other == sample_points(other_d, other_cfg, [EXP])


def test_singular_domain_raises_the_same_message_in_and_out_of_the_scope():
    d = Domain(guard=1e-2)
    tiny = [parse("1e-9*x1")]
    with pytest.raises(DomainTooSingularError) as outside:
        sample_points(d, CFG, tiny)
    with numeric._job_stream():
        for _ in range(2):  # a failed pass is not stored
            with pytest.raises(DomainTooSingularError) as inside:
                sample_points(d, CFG, tiny)
            assert str(inside.value) == str(outside.value)
        assert numeric._STREAM.get() == {(d, CFG.samples, CFG.seed): {}}


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_no_scope_outlives_a_job(tmp_path, monkeypatch):
    spec = str(CORPUS / "ex03_cosh_metric.json")
    assert _quiet_main(["identities", "--spec", spec, "--samples", "50"]) == 0
    assert numeric._STREAM.get() is None
    assert _quiet_main(["verify", "--spec", str(tmp_path / "missing.json")]) == cli.EXIT_SPEC_ERROR
    assert numeric._STREAM.get() is None

    def broken(*args, **kwargs):
        assert numeric._STREAM.get() is not None
        raise KeyError("boom")

    monkeypatch.setattr(cli, "verify", broken)
    assert _quiet_main(["verify", "--spec", spec]) == cli.EXIT_INTERNAL
    assert numeric._STREAM.get() is None


def test_a_job_leaves_the_intern_table_at_its_baseline():
    spec = str(CORPUS / "ex03_cosh_metric.json")
    _quiet_main(["identities", "--spec", spec, "--samples", "50"])
    gc.collect()
    gc.disable()
    try:
        baseline = len(expr._INTERNED)
        for command in ("identities", "oracle", "curvature"):
            assert _quiet_main([command, "--spec", spec, "--samples", "50"]) == 0
        # Without the cycle collector, only reference counting frees nodes.
        assert len(expr._INTERNED) == baseline
    finally:
        gc.enable()


def test_concurrent_jobs_print_what_serial_jobs_print(tmp_path, capsys):
    jobs = [
        ["identities", "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--samples", "300"],
        ["oracle", "--spec", str(CORPUS / "ex04_rotating_unequal_scales.json"), "--samples", "300"],
        ["verify", "--spec", str(CORPUS / "ex04_rotating_unequal_scales.json"), "--samples", "300"],
    ]

    def run(i: int, argv: list, tag: str) -> tuple[int, str]:
        out = tmp_path / f"{tag}-{i}.json"
        code = cli.main([*argv, "--out", str(out)])
        return code, out.read_text(encoding="utf-8")

    serial = [run(i, argv, "serial") for i, argv in enumerate(jobs)]
    results: dict[int, tuple[int, str]] = {}

    def work(i: int) -> None:
        results[i] = run(i, jobs[i], "thread")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(len(jobs))] == serial


def _family_jobs(tmp_path: Path) -> list[list[str]]:
    specs = {
        "b1": {"kind": "branch1", "f2": "exp(1.3*x1) + x1^2", "k": 1.37, "c": 0.83},
        "b2": {"kind": "branch2", "f2": "cosh(0.7*x1) + 2", "c": 1.2, "c1": 0.4, "c2": -1.1},
    }
    jobs = []
    for tag, family in specs.items():
        spec = tmp_path / f"{tag}.json"
        body = {"family": family, "domain": {"x1": [0.25, 1.25], "x2": [-1.0, 1.0]}}
        spec.write_text(json.dumps(body), encoding="utf-8")
        derived = str(tmp_path / f"{tag}.derived.json")
        jobs.append(["construct", "--spec", str(spec), "--emit-spec", derived])
        jobs.append(["identities", "--spec", derived])
    return jobs


def _outputs(jobs: list[list[str]], capsys) -> list[tuple[int, str]]:
    outputs = []
    for argv in jobs:
        code = cli.main(argv)
        outputs.append((code, capsys.readouterr().out))
    return outputs


def test_reports_match_unshared_sampling(tmp_path, capsys, monkeypatch):
    """Every command prints the same bytes with each call sampling on its own."""
    jobs = [
        [command, "--spec", str(path), "--samples", "200"]
        for path in sorted(CORPUS.glob("*.json"))
        for command in ("curvature", "verify", "identities", "oracle")
    ]
    assert len(jobs) == 32
    jobs += _family_jobs(tmp_path)
    shared = _outputs(jobs, capsys)
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    unshared = _outputs(jobs, capsys)
    assert shared == unshared
    assert {code for code, _ in shared} == {0, 1}
    assert all(out for _, out in shared)


@pytest.mark.parametrize("tag", ["b1", "b2"])
def test_construct_job_scans_each_expression_once(tmp_path, capsys, monkeypatch, tag):
    # f2, f2' and the induced f1 are scanned by `construct`; verifying
    # the pair scans f1 and f2 again with the same domain, samples and seed.
    scans = []
    scan = numeric._scan_nowhere_zero
    monkeypatch.setattr(numeric, "_scan_nowhere_zero", lambda e, d, cfg: scans.append(e) or scan(e, d, cfg))
    argv = next(job for job in _family_jobs(tmp_path) if job[2].endswith(f"{tag}.json"))
    assert argv[0] == "construct"
    shared = _outputs([argv], capsys)
    assert len(scans) == len({id(e) for e in scans}) == 3
    scans.clear()
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared
    assert len(scans) == 5


def _counting_draws(monkeypatch) -> tuple[list, list]:
    """Wrap `numeric._draws`: one entry in `starts` per call, one in
    `drawn` per candidate it yields."""
    starts, drawn = [], []
    draws = numeric._draws

    def counting(d, rng):
        starts.append((d, rng))
        for candidate in draws(d, rng):
            drawn.append(candidate)
            yield candidate

    monkeypatch.setattr(numeric, "_draws", counting)
    return starts, drawn


def test_a_verify_job_draws_the_stream_once(monkeypatch):
    starts, drawn = _counting_draws(monkeypatch)
    spec = str(CORPUS / "ex03_cosh_metric.json")
    assert _quiet_main(["verify", "--spec", spec, "--samples", "300"]) == 0
    assert len(starts) == 1
    assert len(drawn) == 300


NOWHERE_ZERO_CASES = [
    (COSH, True, ""),
    (parse("x1"), False, numeric._SIGN_CHANGE),
    (parse("sqrt(x1)"), False, "undefined at (x1="),
]


@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize("e, ok, message", NOWHERE_ZERO_CASES, ids=["pass", "sign-change", "undefined"])
def test_nowhere_zero_gives_the_same_verdict_in_a_scope(monkeypatch, e, ok, message, stored):
    outside = numeric.nowhere_zero(e, Domain(), CFG)
    assert outside[0] is ok and outside[1].startswith(message)
    starts, _ = _counting_draws(monkeypatch)
    with numeric._job_stream():
        if stored:
            # cosh >= 1 on [-1, 1]: this pass rejects nothing.
            sample_points(Domain(), CFG, [COSH])
            starts.clear()
        assert numeric.nowhere_zero(e, Domain(), CFG) == outside
    assert len(starts) == (0 if stored else 1)


def test_a_rejecting_pass_reads_the_stored_prefix_bit_for_bit(monkeypatch):
    d = Domain(guard=1e-2)
    unscoped = sample_points(d, CFG, [SINH])
    starts, drawn = _counting_draws(monkeypatch)
    with numeric._job_stream():
        sample_points(d, CFG)
        assert (len(starts), len(drawn)) == (1, CFG.samples)
        scoped = sample_points(d, CFG, [SINH])
        (table,) = numeric._STREAM.get().values()
        rejected = table[frozenset([id(SINH)])][2]
        assert rejected > 0
    # The second pass read the stored candidates, then drew past them
    # from where they end: each candidate of the stream is drawn once.
    assert len(starts) == 2
    assert len(drawn) == CFG.samples + rejected
    assert len(set(drawn)) == len(drawn)
    assert [(a.hex(), b.hex()) for a, b in scoped] == [(a.hex(), b.hex()) for a, b in unscoped]


def test_a_failed_pass_stores_no_more_than_samples_candidates():
    d = Domain(guard=1e-2)
    with numeric._job_stream():
        numeric.nowhere_zero(COSH, d, CFG)
        with pytest.raises(DomainTooSingularError):
            sample_points(d, CFG, [parse("1e-9*x1")])
        table = numeric._STREAM.get()
        # The guard-less pass of `nowhere_zero` is stored; the failed one is not.
        assert list(table[(d, CFG.samples, CFG.seed)]) == [frozenset()]
        for key, value in table.items():
            if len(key) == 3:  # the passes of a (domain, samples, seed)
                assert all(len(points) <= CFG.samples for _, points, *_ in value.values())


def _hexes(points) -> list[tuple[str, str]]:
    return [(a.hex(), b.hex()) for a, b in points]


def _counting_passes(monkeypatch) -> tuple[list, list]:
    """Wrap `numeric._draw_pass` and `numeric.compile_many`: one entry
    in `passes` per pass run, one in `kernels` per kernel compiled."""
    passes, kernels = [], []
    draw_pass, compile_many = numeric._draw_pass, numeric.compile_many
    monkeypatch.setattr(numeric, "_draw_pass", lambda *args: passes.append(args[2]) or draw_pass(*args))
    monkeypatch.setattr(numeric, "compile_many", lambda exprs: kernels.append(exprs) or compile_many(exprs))
    return passes, kernels


def test_passes_over_separate_guards_clear_their_union(monkeypatch):
    # cosh >= 1 and exp >= 1/e on [-1, 1]: neither pass rejects anything.
    with numeric._job_stream():
        first = sample_points(Domain(), CFG, [COSH])
        sample_points(Domain(), CFG, [EXP])
        passes, kernels = _counting_passes(monkeypatch)
        served = sample_points(Domain(), CFG, [COSH, EXP])
        (table,) = numeric._STREAM.get().values()
        assert list(table) == [frozenset([id(COSH)]), frozenset([id(EXP)])]
    assert served is first
    assert passes == kernels == []
    assert _hexes(served) == _hexes(sample_points(Domain(), CFG, [COSH, EXP]))


@pytest.mark.parametrize("guards", [[COSH], [COSH, EXP], []])
def test_a_passing_scan_clears_its_expression(monkeypatch, guards):
    with numeric._job_stream():
        assert numeric.nowhere_zero(COSH, Domain(), CFG) == (True, "")
        assert numeric.nowhere_zero(EXP, Domain(), CFG) == (True, "")
        prefix = sample_points(Domain(), CFG)
        passes, kernels = _counting_passes(monkeypatch)
        served = sample_points(Domain(), CFG, guards)
        (table,) = [v for k, v in numeric._STREAM.get().items() if len(k) == 3]
        assert list(table) == [frozenset()]
    assert served is prefix
    assert passes == kernels == []
    assert _hexes(served) == _hexes(sample_points(Domain(), CFG, guards))


def test_a_scan_of_another_stream_clears_nothing(monkeypatch):
    with numeric._job_stream():
        assert numeric.nowhere_zero(COSH, Domain(), SamplingConfig(samples=100, seed=6))[0]
        sample_points(Domain(), CFG)
        passes, _ = _counting_passes(monkeypatch)
        sample_points(Domain(), CFG, [COSH])
    assert passes == [(COSH,)]


def test_a_failing_scan_clears_nothing(monkeypatch):
    x1 = parse("x1")
    with numeric._job_stream():
        assert numeric.nowhere_zero(x1, Domain(), CFG) == (False, numeric._SIGN_CHANGE)
        prefix = sample_points(Domain(), CFG)
        passes, kernels = _counting_passes(monkeypatch)
        scoped = sample_points(Domain(), CFG, [x1])
        (table,) = [v for k, v in numeric._STREAM.get().items() if len(k) == 3]
        # |x1| >= 1e-6 at every prefix candidate: the pass rejects nothing,
        # but only running it shows that.
        assert table[frozenset([id(x1)])][2] == 0
    assert passes == [(x1,)] and len(kernels) == 1
    assert scoped is not prefix
    assert _hexes(scoped) == _hexes(prefix) == _hexes(sample_points(Domain(), CFG, [x1]))


def test_a_rejecting_pass_clears_nothing(monkeypatch):
    d = Domain(guard=1e-2)
    with numeric._job_stream():
        sample_points(d, CFG, [SINH, EXP])
        assert numeric.nowhere_zero(EXP, d, CFG)[0]
        passes, _ = _counting_passes(monkeypatch)
        scoped = sample_points(d, CFG, [SINH])
        assert sample_points(d, CFG, [EXP]) is sample_points(d, CFG)
    assert passes == [(SINH,)]
    assert _hexes(scoped) == _hexes(sample_points(d, CFG, [SINH]))


@pytest.mark.parametrize("command", ["verify", "identities"])
def test_a_job_on_ex03_runs_one_pass(monkeypatch, command):
    # The job's scans of f1 and f2 clear every guard of its guarded set.
    passes, _ = _counting_passes(monkeypatch)
    spec = str(CORPUS / "ex03_cosh_metric.json")
    assert _quiet_main([command, "--spec", spec, "--samples", "2000"]) == 0
    assert passes == [()]


def test_a_rejecting_pass_stores_the_head_it_drew(tmp_path, capsys, monkeypatch):
    # sqrt(x2) + 1 is undefined where x2 < 0: the curvature pass rejects
    # about half of the stream, and the scan of f2 reads the head it drew.
    body = json.loads((CORPUS / "ex03_cosh_metric.json").read_text(encoding="utf-8"))
    body["metric"]["f2"] = "sqrt(x2) + 1"
    spec = tmp_path / "sqrt_f2.json"
    spec.write_text(json.dumps(body), encoding="utf-8")
    argv = ["curvature", "--spec", str(spec), "--samples", "2000"]
    starts, drawn = _counting_draws(monkeypatch)
    shared = _outputs([argv], capsys)
    assert (len(starts), len(drawn)) == (1, 3952)
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared


@pytest.mark.parametrize("command", ["verify", "identities", "oracle"])
def test_a_pass_that_reads_the_prefix_draws_on_from_its_end(tmp_path, capsys, monkeypatch, command):
    # sqrt(x1) is undefined where x1 < 0: the guard-less pass draws the
    # 2 000 candidates of the prefix, and the guarded pass that reads
    # them rejects 2 037 and draws on past them, each candidate once.
    body = json.loads((CORPUS / "ex03_cosh_metric.json").read_text(encoding="utf-8"))
    body["field"]["V1"] = "sqrt(x1)"
    spec = tmp_path / "sqrt_v1.json"
    spec.write_text(json.dumps(body), encoding="utf-8")
    argv = [command, "--spec", str(spec), "--samples", "2000"]
    starts, drawn = _counting_draws(monkeypatch)
    shared = _outputs([argv], capsys)
    assert (len(starts), len(drawn), len(set(drawn))) == (2, 4037, 4037)
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared
