"""The fused finite-difference oracle: one `fd_validate` call checks many
expressions in one generated kernel per point list, each expression
keeps the points, skips and maximum it has when checked on its own, and
every result equals the per-point reference fold exactly."""

from __future__ import annotations

import contextlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricciplane import cli, expr, numeric
from ricciplane.expr import FUNCTIONS, Add, Apply, Constant, Div, Domain, Mul, Negate, Pow, Sub, X1, X2, parse
from ricciplane.geometry import ricci
from ricciplane.numeric import DomainTooSingularError, FdValidation, SamplingConfig, _job_stream, fd_validate
from ricciplane.riccifield import residual_system

from conftest import CORPUS, FAILING_CORPUS, PASSING_CORPUS, load_corpus_pair, reference_fd_validate


def _one_at_a_time(exprs, d, cfg, guards=()):
    return [fd_validate([e], d, cfg, guards)[0] for e in exprs]


@pytest.mark.parametrize("name", PASSING_CORPUS + FAILING_CORPUS)
def test_list_call_equals_per_expression_calls_on_corpus(name):
    m, V, d, cfg = load_corpus_pair(name)
    curv = ricci(m)
    exprs = [curv.h12, curv.h21, curv.rho, *residual_system(m, V)]
    guards = [m.f1, m.f2]
    expected = _one_at_a_time(exprs, d, cfg, guards)
    assert fd_validate(exprs, d, cfg, guards) == expected
    with _job_stream():
        assert fd_validate(exprs, d, cfg, guards) == expected
        assert _one_at_a_time(exprs, d, cfg, guards) == expected


def test_lone_expression_keeps_its_shape():
    d, cfg = Domain(), SamplingConfig(samples=20)
    e = parse("exp(x1)*sin(x2)")
    [outcome] = fd_validate([e], d, cfg)
    assert isinstance(outcome, FdValidation)
    assert fd_validate([], d, cfg) == []


def test_undefined_expression_loses_only_its_own_points():
    # sqrt(x1) is undefined left of 0; x1^2 is defined everywhere.
    d, cfg = Domain(x1_range=(-0.5, 0.5)), SamplingConfig(samples=50)
    exprs = [parse("sqrt(x1)"), parse("x1^2")]
    with _job_stream():
        root, square = fd_validate(exprs, d, cfg)
    assert (root, square) == tuple(_one_at_a_time(exprs, d, cfg))
    assert 0 < root.points_skipped < 2 * cfg.samples
    assert square == FdValidation(square.max_rel_error, 2 * cfg.samples, 0)


def test_kink_skips_count_for_the_owning_expression_only():
    # every x1-stencil in this sliver straddles the kink at 0.123
    d, cfg = Domain(x1_range=(0.123 - 5e-6, 0.123 + 5e-6)), SamplingConfig(samples=20)
    exprs = [parse("abs(x1 - 0.123)"), parse("exp(x1)*sin(x2)")]
    with _job_stream():
        kinked, smooth = fd_validate(exprs, d, cfg)
    assert (kinked, smooth) == tuple(_one_at_a_time(exprs, d, cfg))
    assert kinked.points_skipped >= cfg.samples
    assert smooth.points_skipped == 0


def test_nan_deviation_is_infinite_in_its_own_column_only():
    # x1^400 and x1^399*x1 overflow to inf on [10, 20]: the first
    # expression and its derivative are NaN at every point.
    d, cfg = Domain(x1_range=(10.0, 20.0)), SamplingConfig(samples=20)
    exprs = [parse("x1^400 - x1^399*x1 + x1"), parse("x1^2")]
    with _job_stream():
        nan, square = fd_validate(exprs, d, cfg)
    assert (nan, square) == tuple(_one_at_a_time(exprs, d, cfg))
    assert nan.max_rel_error == math.inf
    assert nan.points_used > 0
    assert square.max_rel_error < 1e-5


def test_stencil_leaving_the_plane_is_skipped_for_every_expression():
    # x1 + h overflows to inf, so every x1-stencil leaves the finite plane.
    d = Domain(x1_range=(1.7e308, 1.79e308))
    cfg = SamplingConfig(samples=10, fd_step=1e308)
    exprs = [parse("x2"), parse("x1"), parse("x1*0 + 3*x2")]
    with _job_stream():
        results = fd_validate(exprs, d, cfg)
    assert results == _one_at_a_time(exprs, d, cfg)
    for r in results:
        assert (r.points_used, r.points_skipped) == (cfg.samples, cfg.samples)


def _too_deep() -> expr.Expr:
    # Differentiating a chain this deep exceeds the recursion limit;
    # building and sampling it do not recurse.
    e = X1
    for _ in range(5000):
        e = Apply("sin", e)
    return e


def test_earlier_recursion_error_beats_later_sampling_error():
    d, cfg = Domain(), SamplingConfig(samples=10)
    deep, nowhere = _too_deep(), parse("1/(x1 - x1)")
    with pytest.raises(RecursionError):
        fd_validate([deep, nowhere], d, cfg)
    with pytest.raises(DomainTooSingularError):
        fd_validate([nowhere, deep], d, cfg)


def test_oracle_job_compiles_at_most_three_kernels(monkeypatch, capsys):
    generated = []
    original = expr._generate

    def counting(exprs, single):
        generated.append(len(exprs))
        return original(exprs, single)

    monkeypatch.setattr(expr, "_generate", counting)
    code = cli.main(["oracle", "--spec", str(CORPUS / "ex03_cosh_metric.json")])
    capsys.readouterr()
    assert code == 0
    assert len(generated) <= 3


def _outcome(check, exprs, d, cfg, scoped):
    """The results of `check`, or the type and text of the shortfall it raised."""
    with _job_stream() if scoped else contextlib.nullcontext():
        try:
            return check(exprs, d, cfg)
        except DomainTooSingularError as err:
            return type(err), str(err)


# Small trees over every operation and function, with constants near the
# kinks and the poles the domains below reach.
_trees = st.recursive(
    st.one_of(st.sampled_from([X1, X2]), st.sampled_from([0.0, 1.0, -1.0, 0.003, 2.5]).map(Constant)),
    lambda sub: st.one_of(
        st.builds(Negate, sub),
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Pow, sub, st.sampled_from([2.0, 3.0, -1.0, 0.5, 400.0]).map(Constant)),
        st.builds(Apply, st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=5,
)
_DOMAINS = [
    Domain(),
    Domain(x1_range=(-0.01, 0.01), x2_range=(-0.02, 0.03), guard=1e-3),  # kinks and poles at 0 and 0.003
    Domain(x1_range=(10.0, 20.0)),  # x1^400 overflows
    Domain(x1_range=(0.0, 1.7e308), x2_range=(-0.5, 0.5)),  # with fd_step 1e308, stencils leave the plane
]
_KINKS = [parse("abs(x1 - 0.003)*exp(x2)"), parse("exp(x1)*sin(x2)"), parse("sign(x2)*x1 + x2")]


@given(
    st.lists(_trees, min_size=1, max_size=3),
    st.sampled_from(range(len(_DOMAINS))),
    st.sampled_from([1e-5, 0.01, 1e308]),
    st.integers(3, 12),
    st.integers(0, 10**6),
    st.booleans(),
)
@example([parse("sqrt(x1)"), parse("log(x2)"), parse("1/x1 + x2^2")], 1, 0.01, 12, 7, True)  # undefined regions
@example(_KINKS, 1, 0.01, 12, 3, True)  # a kink straddle skips only its owner
@example([parse("x1^400 - x1^399*x1 + x1"), parse("x1^2")], 2, 1e-5, 8, 1, True)  # NaN errors
@example([parse("1/x1"), parse("x2^2"), parse("1/(x2 - 0.003)")], 1, 1e-5, 10, 5, True)  # three point lists
@example([parse("x1*x2"), parse("exp(x2) + x1"), parse("1/x1")], 3, 1e308, 10, 2, True)  # stencils leave the plane
@example([parse("x1*x2"), parse("x2")], 0, 1e308, 6, 9, False)
@settings(max_examples=150, deadline=None)
def test_fd_validate_equals_the_per_point_reference(exprs, domain, step, samples, seed, scoped):
    d, cfg = _DOMAINS[domain], SamplingConfig(samples=samples, seed=seed, fd_step=step)
    assert _outcome(fd_validate, exprs, d, cfg, scoped) == _outcome(reference_fd_validate, exprs, d, cfg, scoped)


def test_reference_examples_exercise_every_path():
    # The explicit examples above skip at kinks and off the finite plane,
    # and span three point lists.
    d, cfg = _DOMAINS[1], SamplingConfig(samples=12, seed=3, fd_step=0.01)
    with _job_stream():
        kinked, smooth, signed = fd_validate(_KINKS, d, cfg)
    assert kinked.points_skipped > 0 and smooth.points_skipped == 0 and signed.points_skipped > 0
    d, cfg = _DOMAINS[3], SamplingConfig(samples=10, seed=2, fd_step=1e308)
    with _job_stream():
        results = fd_validate([parse("x1*x2"), parse("exp(x2) + x1")], d, cfg)
    assert all(0 < r.points_skipped < 2 * cfg.samples for r in results)
    lists = []
    sweep = numeric._fd_sweep
    with _job_stream(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_fd_sweep", lambda built, points, h: lists.append(id(points)) or sweep(built, points, h))
        fd_validate([parse("1/x1"), parse("x2^2"), parse("1/(x2 - 0.003)")], _DOMAINS[1], SamplingConfig(samples=10, seed=5))
    assert len(lists) == len(set(lists)) == 3


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_oracle_job_decides_every_corpus_point_in_one_kernel_per_list(name, monkeypatch, capsys):
    lists, kernels, returned, compiled = [], [], [], []
    sweep, compile_fd = numeric._fd_sweep, numeric.compile_fd

    def recording_sweep(built, points, h):
        lists.append(id(points))
        return sweep(built, points, h)

    def recording_compile_fd(*exprs):
        kernels.append(exprs)
        kernel = compile_fd(*exprs)

        def run(points, worst, h):
            worst, raised = kernel(points, worst, h)
            returned.extend([raised] if raised is not None else [])
            return worst, raised

        return run

    monkeypatch.setattr(numeric, "_fd_sweep", recording_sweep)
    monkeypatch.setattr(numeric, "compile_fd", recording_compile_fd)
    monkeypatch.setattr(numeric, "_fd_point", lambda *args: compiled.append(args))
    monkeypatch.setattr(numeric, "compile_expr", lambda e: compiled.append(e))
    assert cli.main(["oracle", "--spec", str(CORPUS / name)]) == 0
    capsys.readouterr()
    assert len(kernels) == len(lists) == len(set(lists)) >= 1
    assert returned == [] and compiled == []
