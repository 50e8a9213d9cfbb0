"""The fused finite-difference oracle: one `fd_validate` call checks many
expressions in one sweep per point list, and each expression keeps the
points, skips and maximum it has when checked on its own."""

from __future__ import annotations

import math

import pytest

from ricciplane import cli, expr
from ricciplane.expr import Domain, X1, parse, sin
from ricciplane.geometry import ricci
from ricciplane.numeric import DomainTooSingularError, FdValidation, SamplingConfig, _job_stream, fd_validate
from ricciplane.riccifield import residual_system

from conftest import CORPUS, FAILING_CORPUS, PASSING_CORPUS, load_corpus_pair


def _one_at_a_time(exprs, d, cfg, guards=()):
    return [fd_validate(e, d, cfg, guards) for e in exprs]


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
    assert isinstance(fd_validate(e, d, cfg), FdValidation)
    assert fd_validate([e], d, cfg) == [fd_validate(e, d, cfg)]
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
        e = sin(e)
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
