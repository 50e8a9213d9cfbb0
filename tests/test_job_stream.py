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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricciplane import cli, expr, families, geometry, identities, numeric
from ricciplane.expr import Domain, parse
from ricciplane.geometry import ricci
from ricciplane.numeric import DomainTooSingularError, SamplingConfig, sample_points
from ricciplane.riccifield import residual_system

from conftest import CORPUS, load_corpus_pair, uniform_stream_points

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


def test_covered_subset_is_served_by_its_superset(monkeypatch):
    # cosh >= 1 and exp >= 1/e on [-1, 1]: one sweep over the prefix
    # clears both, so the superset runs no pass and is served the prefix.
    with numeric._job_stream():
        passes, _ = _counting_passes(monkeypatch)
        swept = _counting_sweeps(monkeypatch)
        superset = sample_points(Domain(), CFG, [COSH, EXP])
        assert sample_points(Domain(), CFG, [EXP]) is superset
        assert sample_points(Domain(), CFG) is superset
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        assert superset is s.prefix
        # Each cleared guard is held by its sweep state, not by a pass.
        assert s.passes == {} and _swept(s) == [COSH, EXP]
        assert s.cleared == {COSH, EXP}
    assert passes == []
    assert swept == [([[COSH], [EXP]], s.prefix)] and swept[0][1] is s.prefix
    assert superset == sample_points(Domain(), CFG, [EXP]) == sample_points(Domain(), CFG)


def test_superset_that_rejected_candidates_serves_no_subset(monkeypatch):
    d = Domain(guard=1e-2)
    with numeric._job_stream():
        passes, _ = _counting_passes(monkeypatch)
        superset = sample_points(d, CFG, [SINH, EXP])
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        # The sweep clears exp (>= 1/e), not sinh, which changes sign:
        # both sweep states are stored, then the rejecting pass with its
        # own points, which clears nothing.  The record holds the
        # stream's prefix and where it ends.
        assert _swept(s) == [SINH, EXP]
        assert list(s.passes) == [frozenset([SINH, EXP])]
        assert s.passes[frozenset([SINH, EXP])] is superset
        assert superset != s.prefix and s.cleared == {EXP}
        rng = random.Random(CFG.seed)
        assert (s.prefix, s.end) == (list(islice(numeric._draws(d, rng), CFG.samples)), rng.getstate())
        subset = sample_points(d, CFG, [EXP])
        assert subset is s.prefix and len(s.passes) == 1
    assert passes == [(SINH, EXP)]
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
        assert len(numeric._STREAM.get()[numeric._Stream]) == 2
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
        ((key, s),) = numeric._STREAM.get()[numeric._Stream].items()
        assert key == (d, CFG.samples, CFG.seed)
        assert s.passes == {} and s.cleared == set()


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
    # f2, f2' and the induced f1 are scanned by `construct` in the job's
    # first sweep; verifying the pair scans f1 and f2 again with the
    # same domain, samples and seed.  Every scan passes, so none runs the
    # per-point loop.  The job sweeps each expression over its prefix as
    # a group of its own once: the three scans, then h12, h21, rho, r and
    # rho's two folds on b1, and the guard sinh(0.7*x1), h12, h21, rho, r and
    # rho's one fold on b2.  Each call on its own sweeps over a stream of
    # its own: 13 scan and guard sweeps, the range groups of
    # `curvature_sweep` (6 on b1, 5 on b2), and on b2, whose rho reads as
    # zero at its first point, the zero test's own sweep of rho, its fold
    # and x1: 19 and 21 in all.
    records, failures = [], []
    stream, scan = numeric._Stream, numeric._scan_nowhere_zero
    monkeypatch.setattr(numeric, "_Stream", lambda *key: records.append(stream(*key)) or records[-1])
    monkeypatch.setattr(
        numeric, "_scan_nowhere_zero", lambda e, points, guard: failures.append(e) or scan(e, points, guard)
    )

    def scanned() -> list:
        prefixes = [s.prefix for s in records]
        return [g[0] for groups, points in swept if any(points is p for p in prefixes) for g in groups if len(g) == 1]

    argv = next(job for job in _family_jobs(tmp_path) if job[2].endswith(f"{tag}.json"))
    assert argv[0] == "construct"
    swept = _counting_sweeps(monkeypatch)
    shared = _outputs([argv], capsys)
    assert len(scanned()) == len(set(scanned())) == 9
    # No expression is swept on its own twice.
    singles = [group[0] for groups, _ in swept for group in groups if len(group) == 1]
    assert len(singles) == len(set(singles)) == 9
    # The job's first sweep holds the three scans, in the order of their verdicts.
    params = cli.spec_family(json.loads(Path(argv[2]).read_text(encoding="utf-8")))
    m, _ = families.construct(params, Domain(x1_range=(0.25, 1.25)), SamplingConfig())
    scans = (m.f2, expr.simplify(expr.differentiate(m.f2, expr.Var.X1)), m.f1)
    assert swept[0][0] == [[e] for e in scans]
    assert all(e is g for e, [g] in zip(scans, swept[0][0]))
    records.clear()
    swept.clear()
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared
    assert len(scanned()) == {"b1": 19, "b2": 21}[tag]
    assert failures == []


def test_unscoped_hypothesis_scans_sweep_the_prefix_once(monkeypatch):
    # Outside a job scope each scan draws a stream record of its own: the
    # named expressions of one scan share one sweep of its prefix.  f2' of
    # exp(x1) is f2 itself, one group.
    swept = _counting_sweeps(monkeypatch)
    cfg = SamplingConfig(samples=2000)
    m, _ = families.construct(families.Branch1(f2=EXP, k=1.0, c=1.0), Domain(), cfg)
    assert [groups for groups, _ in swept] == [[[m.f2], [m.f1]]]
    assert len(swept[0][1]) == 2000
    swept.clear()
    geometry.validate_metric(m, Domain(), cfg)
    assert [groups for groups, _ in swept] == [[[m.f1], [m.f2]]]


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
    starts, drawn = _counting_draws(monkeypatch)
    unscoped = sample_points(d, CFG, [SINH])
    unscoped_draws = len(drawn)
    starts.clear()
    drawn.clear()
    with numeric._job_stream():
        sample_points(d, CFG)
        assert (len(starts), len(drawn)) == (1, CFG.samples)
        scoped = sample_points(d, CFG, [SINH])
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        assert s.passes[frozenset([SINH])] != s.prefix  # it rejected candidates
    # The second pass read the stored candidates, then drew past them
    # from where they end: each candidate of the stream is drawn once,
    # as many as the pass draws outside the scope.
    assert len(starts) == 2
    assert len(drawn) == unscoped_draws > CFG.samples
    assert len(set(drawn)) == len(drawn)
    assert [(a.hex(), b.hex()) for a, b in scoped] == [(a.hex(), b.hex()) for a, b in unscoped]


def test_a_failed_pass_stores_no_more_than_samples_candidates():
    d = Domain(guard=1e-2)
    with numeric._job_stream():
        numeric.nowhere_zero(COSH, d, CFG)
        tiny = parse("1e-9*x1")
        with pytest.raises(DomainTooSingularError):
            sample_points(d, CFG, [tiny])
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        # The sweeps of the scan and of the guard are stored; the failed pass is not.
        assert _swept(s) == [COSH, tiny] and s.passes == {}
        assert len(s.prefix) == CFG.samples
        assert all(len(points) <= CFG.samples for points in s.passes.values())


def _hexes(points) -> list[tuple[str, str]]:
    return [(a.hex(), b.hex()) for a, b in points]


def _counting_sweeps(monkeypatch) -> list:
    """Wrap `numeric._sweep`, which runs one sweep kernel over the groups
    the job's record does not hold: one (groups, points) per run, each
    group as a list."""
    swept = []
    sweep = numeric._sweep
    monkeypatch.setattr(
        numeric, "_sweep", lambda groups, points: swept.append(([list(g) for g in groups], points)) or sweep(groups, points)
    )
    return swept


def _distinct(groups: list, swept: list = ()) -> list:
    """The distinct groups not in `swept`, each as a list, in
    first-occurrence order: those one `_extrema` call sweeps over a list
    the job has swept the groups `swept` over."""
    return [list(g) for g in dict.fromkeys(map(tuple, groups)) if list(g) not in swept]


def _swept(s: numeric._Stream) -> list:
    """The expressions the current job's record holds swept over the
    prefix of `s` as a group of their own, in the order swept."""
    return [group[0] for group in numeric._recorded(s.prefix) if len(group) == 1]


def _counting_passes(monkeypatch) -> tuple[list, list]:
    """Wrap `numeric._draw_pass` and `numeric.compile_many`: the guards
    of each pass run in `passes`, one entry in `kernels` per kernel
    compiled."""
    passes, kernels = [], []
    draw_pass, compile_many = numeric._draw_pass, numeric.compile_many
    monkeypatch.setattr(numeric, "_draw_pass", lambda *args: passes.append(args[2]) or draw_pass(*args))
    monkeypatch.setattr(numeric, "compile_many", lambda exprs: kernels.append(exprs) or compile_many(exprs))
    return passes, kernels


_GUARDED = {
    "metric": {"f1": "cosh(x1)", "f2": "exp(x1)"},
    "field": {"frame": "coordinate", "V1": "exp(-x1)*cosh(x1)*(x1 - 0.3)/(x1 - 0.3)", "V2": "0"},
    "domain": {"x1": [-1, 1], "x2": [-1, 1], "guard": 0.05},
}


@pytest.mark.parametrize("samples", [200, 20_000])
@pytest.mark.parametrize("command", ["verify", "identities", "oracle"])
def test_a_guarded_job_runs_one_pass_that_rejects_candidates(tmp_path, capsys, monkeypatch, command, samples):
    # The guard x1 - 0.3 rejects the prefix candidates within 0.05 of
    # x1 = 0.3: the job runs one pass, kept in its stream record, and the
    # pass returns a list of its own, not the prefix.
    spec = tmp_path / "guarded.json"
    spec.write_text(json.dumps(_GUARDED), encoding="utf-8")
    runs = []
    draw_pass = numeric._draw_pass

    def recorded(d, cfg, guards, s):
        runs.append((guards, s, draw_pass(d, cfg, guards, s)))
        return runs[-1][2]

    monkeypatch.setattr(numeric, "_draw_pass", recorded)
    assert cli.main([command, "--spec", str(spec), "--samples", str(samples)]) == 0
    capsys.readouterr()
    ((guards, s, points),) = runs
    assert parse("x1 - 0.3") in guards
    assert s.passes == {frozenset(guards): points}
    assert points is not s.prefix and len(points) == samples
    assert all(abs(x1 - 0.3) >= 0.05 for x1, _ in points)
    assert any(abs(x1 - 0.3) < 0.05 for x1, _ in s.prefix)


def test_passes_over_separate_guards_clear_their_union(monkeypatch):
    # cosh >= 1 and exp >= 1/e on [-1, 1]: the sweep of each set clears
    # it, and neither runs a pass.
    with numeric._job_stream():
        passes, kernels = _counting_passes(monkeypatch)
        swept = _counting_sweeps(monkeypatch)
        first = sample_points(Domain(), CFG, [COSH])
        sample_points(Domain(), CFG, [EXP])
        assert [groups for groups, _ in swept] == [[[COSH]], [[EXP]]]
        served = sample_points(Domain(), CFG, [COSH, EXP])
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        assert s.passes == {} and _swept(s) == [COSH, EXP]
        assert s.cleared == {COSH, EXP}
    assert served is first is s.prefix
    assert passes == kernels == [] and len(swept) == 2
    assert _hexes(served) == _hexes(sample_points(Domain(), CFG, [COSH, EXP]))


@pytest.mark.parametrize("guards", [[COSH], [COSH, EXP], []])
def test_a_passing_scan_clears_its_expression(monkeypatch, guards):
    with numeric._job_stream():
        assert numeric.nowhere_zero(COSH, Domain(), CFG) == (True, "")
        assert numeric.nowhere_zero(EXP, Domain(), CFG) == (True, "")
        prefix = sample_points(Domain(), CFG)
        passes, kernels = _counting_passes(monkeypatch)
        served = sample_points(Domain(), CFG, guards)
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        assert s.passes == {}
        assert _swept(s) == [COSH, EXP] and s.cleared == {COSH, EXP}
    assert served is prefix is s.prefix
    assert passes == kernels == []
    assert _hexes(served) == _hexes(sample_points(Domain(), CFG, guards))


def test_a_scan_of_another_stream_clears_nothing(monkeypatch):
    with numeric._job_stream():
        assert numeric.nowhere_zero(COSH, Domain(), SamplingConfig(samples=100, seed=6))[0]
        prefix = sample_points(Domain(), CFG)
        s = numeric._STREAM.get()[numeric._Stream][(Domain(), CFG.samples, CFG.seed)]
        assert s.cleared == set() and _swept(s) == []
        passes, _ = _counting_passes(monkeypatch)
        swept = _counting_sweeps(monkeypatch)
        # cosh is swept over this stream's prefix, which clears it.
        assert sample_points(Domain(), CFG, [COSH]) is prefix
    assert passes == [] and swept == [([[COSH]], prefix)] and swept[0][1] is prefix


def test_a_failing_scan_clears_nothing(monkeypatch):
    x1 = parse("x1")
    with numeric._job_stream():
        assert numeric.nowhere_zero(x1, Domain(), CFG) == (False, numeric._SIGN_CHANGE)
        prefix = sample_points(Domain(), CFG)
        (s,) = numeric._STREAM.get()[numeric._Stream].values()
        assert s.cleared == set()
        passes, kernels = _counting_passes(monkeypatch)
        scoped = sample_points(Domain(), CFG, [x1])
        # |x1| >= 1e-6 at every prefix candidate: the pass rejects nothing,
        # but only running it shows that.
        assert s.passes[frozenset([x1])] is prefix
    assert passes == [(x1,)] and len(kernels) == 1
    assert scoped is prefix
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
def test_a_job_on_ex03_runs_no_pass(monkeypatch, command):
    # The job's scans of f1 and f2 clear every guard of its guarded set,
    # and the guard-less set is served the prefix.
    passes, _ = _counting_passes(monkeypatch)
    spec = str(CORPUS / "ex03_cosh_metric.json")
    assert _quiet_main([command, "--spec", spec, "--samples", "2000"]) == 0
    assert passes == []


def test_a_rejecting_pass_and_a_scan_share_the_prefix(tmp_path, capsys, monkeypatch):
    # sqrt(x2) + 1 is undefined where x2 < 0: the curvature pass rejects
    # about half of the stream.  The record draws the prefix once, the
    # pass reads it and draws on from its end, and the scan of f2 reads it.
    body = json.loads((CORPUS / "ex03_cosh_metric.json").read_text(encoding="utf-8"))
    body["metric"]["f2"] = "sqrt(x2) + 1"
    spec = tmp_path / "sqrt_f2.json"
    spec.write_text(json.dumps(body), encoding="utf-8")
    argv = ["curvature", "--spec", str(spec), "--samples", "2000"]
    starts, drawn = _counting_draws(monkeypatch)
    shared = _outputs([argv], capsys)
    assert (len(starts), len(drawn), len(set(drawn))) == (2, 3952, 3952)
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared


@pytest.mark.parametrize("command", ["verify", "identities", "oracle"])
def test_a_pass_that_reads_the_prefix_draws_on_from_its_end(tmp_path, capsys, monkeypatch, command):
    # sqrt(x1) is undefined where x1 < 0: the job's stream record draws
    # the 2 000 candidates of the prefix, and the guarded pass that reads
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


def test_a_branch1_identities_job_sweeps_one_point_list(tmp_path, capsys, monkeypatch):
    # Every guard of this job clears, so every sweep but one reads the
    # stream's prefix itself, not an equal copy of it: the scans of f1
    # and f2 in one sweep, the sweep of the one guard left, and the
    # residuals with h12, h21, rho, r, rho's one finiteness fold and the
    # four identity groups, but closedness, whose group [0] is that of
    # h12 = 0 and is swept once.  The other reads the residuals at the
    # first point of the prefix alone; they pass there, so the identity
    # groups join the residual sweep.  The zero test reads the recorded
    # ranges, and the identity phase its recorded groups: neither sweeps.
    family = {"kind": "branch1", "f2": "cosh(0.616*x1) + 2", "k": 0.695, "c": 1.571}
    spec = tmp_path / "b1.json"
    spec.write_text(json.dumps({"family": family, "domain": {"x1": [0.25, 1.25], "x2": [-1.0, 1.0]}}), encoding="utf-8")
    derived = tmp_path / "b1.derived.json"
    seed = ["--seed", "2124989931"]
    assert _quiet_main(["construct", "--spec", str(spec), "--emit-spec", str(derived), *seed]) == 0
    swept = _counting_sweeps(monkeypatch)
    argv = ["identities", "--spec", str(derived), *seed]
    shared = _outputs([argv], capsys)
    assert [len(groups) for groups, _ in swept] == [2, 1, 1, 9]
    prefix = swept[0][1]
    assert [points is prefix for _, points in swept] == [True, True, False, True]
    assert swept[2][1] == prefix[:1]
    spec = json.loads(derived.read_text(encoding="utf-8"))
    m = cli.spec_metric(spec)
    V, _ = cli.spec_field(spec, m)
    curv = ricci(m)
    residuals = list(residual_system(m, V))
    folds = [[f] for f in expr._finiteness_folds(curv.rho)]
    built = [build() for build in identities.identity_groups(m, V).values()]
    assert swept[2][0] == [residuals]
    assert swept[3][0] == _distinct([residuals, [curv.h12], [curv.h21], [curv.rho], [curv.r], *folds, *built])
    assert len(folds) == 1 and len(built) == 4 and built[3] == [curv.h12] == [expr.Constant(0.0)]
    monkeypatch.setattr(numeric, "_job_stream", contextlib.nullcontext)
    assert _outputs([argv], capsys) == shared


# sqrt and log(x1 + 1.2) are undefined or small on part of [-1, 1], sinh
# and x1 change sign, 1e-9*x1 is below every guard (its pass fails), and
# cosh and exp clear every guard below 1/e.
_STREAM_GUARDS = [parse(t) for t in ("sqrt(x1)", "sinh(x1)", "1e-9*x1", "log(x1 + 1.2)", "cosh(x1)", "exp(x1)", "x1")]
_SQRT, _SINH, _TINY, _LOG, _COSH, _EXP, _X1 = range(len(_STREAM_GUARDS))
_stream_calls = st.lists(
    st.one_of(
        st.tuples(st.just("scan"), st.integers(0, len(_STREAM_GUARDS) - 1)),
        st.tuples(st.just("sample"), st.lists(st.integers(0, len(_STREAM_GUARDS) - 1), max_size=3)),
    ),
    min_size=1,
    max_size=6,
)


def _stream_call(kind: str, which, d: Domain, cfg: SamplingConfig):
    """The outcome of one `nowhere_zero` or `sample_points` call: the
    verdict, the points by `float.hex`, or the message it raised."""
    try:
        if kind == "scan":
            return numeric.nowhere_zero(_STREAM_GUARDS[which], d, cfg)
        return _hexes(sample_points(d, cfg, [_STREAM_GUARDS[i] for i in which]))
    except DomainTooSingularError as err:
        return str(err)


@given(st.sampled_from([1e-6, 1e-2, 0.3]), st.sampled_from([7, 50, 200]), st.integers(0, 3), _stream_calls)
@settings(max_examples=150, deadline=None)
@example(0.3, 50, 0, [("sample", [_SINH]), ("sample", [_SINH])])
@example(0.3, 50, 0, [("scan", _X1), ("sample", [_X1])])
@example(0.3, 50, 0, [("sample", [_SQRT])])
@example(1e-2, 7, 1, [("sample", [_TINY, _COSH]), ("scan", _LOG), ("sample", [_COSH]), ("sample", [_LOG, _EXP])])
def test_scoped_calls_equal_unscoped_ones(guard, samples, seed, calls):
    """Any interleaving of passes and scans in one job scope gives, call
    by call, what each call gives on its own, bit for bit; and a pass on
    its own gives the points of the plain uniform draws."""
    d, cfg = Domain(guard=guard), SamplingConfig(samples=samples, seed=seed)
    unscoped = [_stream_call(kind, which, d, cfg) for kind, which in calls]
    with numeric._job_stream():
        scoped = [_stream_call(kind, which, d, cfg) for kind, which in calls]
    assert scoped == unscoped
    for (kind, which), got in zip(calls, unscoped):
        if kind == "sample" and not isinstance(got, str):
            assert got == _hexes(uniform_stream_points(d, cfg, [_STREAM_GUARDS[i] for i in which]))


def _counting_rows(monkeypatch) -> list:
    """Wrap `expr.compile_many`, whose kernel the zero test reads row by
    row: one entry per point it evaluates."""
    rows = []
    compile_many = expr.compile_many
    monkeypatch.setattr(
        expr, "compile_many", lambda exprs: (lambda f: lambda x1, x2: rows.append((x1, x2)) or f(x1, x2))(compile_many(exprs))
    )
    return rows


@pytest.mark.parametrize("command", ["verify", "identities"])
def test_a_verify_job_sweeps_residuals_with_the_curvature_once(capsys, monkeypatch, command):
    # One sweep scans f1 and f2, then one sweeps the residual group with
    # h12, h21, rho and r, whose ranges the report reads, and rho's
    # finiteness fold exp(x1)^2.  `identities` first reads the residuals
    # at the first point of their list; they pass there, so its groups
    # join the residual sweep (closedness, [0], is the group of h12 = 0),
    # and its identity phase finds them recorded.  The flat test reads
    # rho's recorded range, which is not within the tolerance, and one
    # row, which is not zero.
    swept, rows = _counting_sweeps(monkeypatch), _counting_rows(monkeypatch)
    argv = [command, "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--samples", "2000"]
    shared = _outputs([argv], capsys)
    m, V, _, _ = load_corpus_pair("ex03_cosh_metric.json")
    curv = ricci(m)
    fold = parse("exp(x1)^2")
    residuals = list(residual_system(m, V))
    fused = [residuals, [curv.h12], [curv.h21], [curv.rho], [curv.r], [fold]]
    prefix = swept[0][1]
    if command == "verify":
        assert [groups for groups, _ in swept] == [[[m.f1], [m.f2]], fused]
        assert [points is prefix for _, points in swept] == [True, True]
    else:
        fused = _distinct(fused + [build() for build in identities.identity_groups(m, V).values()])
        assert len(fused) == 9
        assert [groups for groups, _ in swept] == [[[m.f1], [m.f2]], [residuals], fused]
        assert [points is prefix for _, points in swept] == [True, False, True]
        assert swept[1][1] == prefix[:1]
    assert len(rows) == 1
    swept.clear()
    rows.clear()
    assert _outputs([["curvature", *argv[1:]]], capsys)[0][0] == 0 == shared[0][0]
    # `curvature` sweeps the guards f1, f2 and then the four ranges with the fold.
    assert [groups for groups, _ in swept] == [[[m.f1], [m.f2]], [[curv.h12], [curv.h21], [curv.rho], [curv.r], [fold]]]
    assert len(rows) == 1


@pytest.mark.parametrize("name", ["ex04_rotating_equal_scales.json", "ex04_rotating_unequal_scales.json"])
@pytest.mark.parametrize("command", ["curvature", "verify", "identities"])
def test_a_flat_job_decides_the_zero_test_from_recorded_ranges(capsys, monkeypatch, name, command):
    # rho needs no finiteness fold and its recorded range is within the
    # tolerance: the zero test sweeps nothing and reads no row.  An
    # `identities` job reads the residuals at the first point of their
    # list: on the unequal scales they fail there, so no identity
    # residual is built; on the equal scales each identity group is
    # built once and swept with the residuals, and the identity phase
    # finds them recorded.  A group is swept once per point list: on the
    # equal scales h21 is f1 = f2 = exp(x1), swept by the scan.
    m, V, _, _ = load_corpus_pair(name)
    curv = ricci(m)
    assert expr._finiteness_folds(curv.rho) == []
    swept, rows = _counting_sweeps(monkeypatch), _counting_rows(monkeypatch)
    built = _counting_identity_builds(monkeypatch)
    [(code, out)] = _outputs([[command, "--spec", str(CORPUS / name), "--samples", "2000"]], capsys)
    assert json.loads(out)["flat"] is True
    ranges = [[curv.h12], [curv.h21], [curv.rho], [curv.r]]
    scans = [[m.f1]] if m.f1 is m.f2 else [[m.f1], [m.f2]]
    residuals = list(residual_system(m, V))
    if command == "curvature":
        assert [groups for groups, _ in swept] == [scans, _distinct(ranges, scans)]
    elif command == "verify":
        assert [groups for groups, _ in swept] == [scans, _distinct([residuals, *ranges], scans)]
    elif "unequal" in name:
        assert code == 1
        assert [groups for groups, _ in swept] == [scans, [residuals], _distinct([residuals, *ranges], scans)]
        assert built == []
    else:
        assert code == 0
        assert built == list(_IDENTITY_BUILDERS)
        identity = [build() for build in identities.identity_groups(m, V).values()]
        assert [groups for groups, _ in swept] == [scans, [residuals], _distinct([residuals, *ranges, *identity], scans)]
    assert rows == []


_IDENTITY_BUILDERS = (
    "_ric_vv_residuals", "_scalar_divergence_residuals", "_curvature_identity_residuals", "closedness_defect"
)


def _counting_identity_builds(monkeypatch) -> list:
    """Wrap the builders of the identity residual groups: one entry, the
    builder's name, per group built."""
    built = []
    for name in _IDENTITY_BUILDERS:
        build = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, name=name, build=build: built.append(name) or build(*args))
    return built


# Sweep kernels (`numeric.compile_sweep` calls) per job on each corpus
# spec, at its own samples: curvature, verify, identities, oracle.  On
# ex01, ex02 and ex05 the curvature and every residual simplify to
# constants, so only the scan of f1 and f2 runs one; ex06 is constant
# throughout.  On ex03 and ex04 an identities job runs one more than
# verify, its read of the first point: its identity phase runs none.
_CORPUS_KERNELS = {
    "ex01a_frame_field_e1": (1, 1, 1, 1),
    "ex01b_frame_field_e2": (1, 1, 1, 1),
    "ex02_exponential_metric": (1, 1, 1, 1),
    "ex03_cosh_metric": (2, 2, 3, 1),
    "ex04_rotating_equal_scales": (2, 2, 3, 1),
    "ex04_rotating_unequal_scales": (2, 2, 3, 1),
    "ex05_exp_with_constant": (1, 1, 1, 1),
    "ex06_constant_metric": (0, 0, 0, 0),
}


def test_sweep_kernels_per_corpus_job(monkeypatch):
    kernels = []
    compile_sweep = numeric.compile_sweep
    monkeypatch.setattr(numeric, "compile_sweep", lambda exprs: kernels.append(exprs) or compile_sweep(exprs))
    table = {}
    for path in sorted(CORPUS.glob("*.json")):
        counts = []
        for command in ("curvature", "verify", "identities", "oracle"):
            kernels.clear()
            assert _quiet_main([command, "--spec", str(path)]) in (cli.EXIT_PASS, cli.EXIT_FAIL)
            counts.append(len(kernels))
        table[path.stem] = tuple(counts)
    assert table == _CORPUS_KERNELS
