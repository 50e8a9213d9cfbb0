"""Sampling engine determinism and the finite-difference oracle."""

from __future__ import annotations

import math
import random

import pytest

from ricciplane.expr import EVAL_ERRORS, Constant, Domain, Var, compile_expr, parse
from ricciplane.numeric import (
    DomainTooSingularError,
    SamplingConfig,
    fd_validate,
    nowhere_zero,
    sample_points,
    sampled_range,
)

from conftest import fd_partial, uniform_stream_points


def test_sample_points_deterministic():
    d = Domain()
    cfg = SamplingConfig(samples=5, seed=42)
    first = sample_points(d, cfg)
    second = sample_points(d, cfg)
    assert first == second
    assert len(first) == 5
    assert sample_points(d, SamplingConfig(samples=5, seed=43)) != first


def test_sample_points_respects_ranges():
    d = Domain(x1_range=(2.0, 3.0), x2_range=(-5.0, -4.0))
    for x1, x2 in sample_points(d, SamplingConfig(samples=50)):
        assert 2.0 <= x1 <= 3.0
        assert -5.0 <= x2 <= -4.0


def test_guard_that_never_triggers_keeps_the_stream():
    # exp(x1) >= e^-1 on [-1,1], so no candidate is rejected and the
    # accepted points match the unguarded stream draw for draw.
    d = Domain()
    cfg = SamplingConfig(samples=40)
    assert sample_points(d, cfg, guards=[parse("exp(x1)")]) == sample_points(d, cfg)


def test_guard_rejects_a_band():
    d = Domain(guard=1e-2)
    guard = parse("sinh(x1)")
    points = sample_points(d, SamplingConfig(samples=200), guards=[guard])
    assert len(points) == 200
    assert all(abs(math.sinh(x1)) >= 1e-2 for x1, _ in points)


def test_sample_points_singular_domain():
    # a guard that is almost never satisfied
    d = Domain(guard=1e-2)
    with pytest.raises(DomainTooSingularError):
        sample_points(d, SamplingConfig(samples=100), guards=[parse("1e-9*x1")])


def test_nowhere_zero_checks():
    d = Domain()
    cfg = SamplingConfig()
    assert nowhere_zero(parse("exp(x1)"), d, cfg)[0] is True
    ok, reason = nowhere_zero(parse("sin(x1)"), d, cfg)
    assert ok is False and "sign change" in reason
    # nonnegative but guard-small values are caught by magnitude
    ok, reason = nowhere_zero(parse("0"), d, cfg)
    assert ok is False and "guard" in reason


def test_fd_partial_known_derivatives():
    h = 1e-5
    assert abs(fd_partial(parse("exp(x1)"), (0, 0), Var.X1, h) - 1.0) <= 1e-9
    assert abs(fd_partial(parse("cosh(x1)"), (0, 0), Var.X1, h)) <= 1e-10
    fd = fd_partial(parse("x1^3"), (2, 0), Var.X1, h)
    assert abs(fd - 12.0) / 12.0 <= 1e-6


def test_fd_validate_smooth_expression():
    [outcome] = fd_validate([parse("exp(x1)*sin(x2)")], Domain(), SamplingConfig())
    assert outcome.max_rel_error <= 1e-7
    assert outcome.points_skipped == 0


def test_fd_validate_constant_is_exact():
    [outcome] = fd_validate([Constant(5.0)], Domain(), SamplingConfig())
    assert outcome.max_rel_error == 0.0


def test_fd_validate_skips_kink_straddles():
    # every stencil in this sliver of domain straddles the |.| kink
    d = Domain(x1_range=(0.123 - 5e-6, 0.123 + 5e-6))
    [outcome] = fd_validate([parse("abs(x1 - 0.123)")], d, SamplingConfig(samples=20))
    assert outcome.points_skipped > 0
    assert outcome.max_rel_error <= 1e-5


@pytest.mark.parametrize(
    "d, guards",
    [
        (Domain(), []),
        (Domain(x1_range=(0.25, 1.25), x2_range=(-3.0, 7.5), guard=1e-2), ["sinh(x1 - 0.75)", "x2"]),
        # log(x1) is undefined on a third of the candidates.
        (Domain(x1_range=(-1e-3, 2e-3), x2_range=(100.0, 100.5), guard=1e-4), ["1/x1", "log(x1)"]),
    ],
)
def test_sample_points_match_random_uniform_draws(d, guards):
    cfg = SamplingConfig(samples=300, seed=2026)
    got = sample_points(d, cfg, [parse(g) for g in guards])
    want = uniform_stream_points(d, cfg, [parse(g) for g in guards])
    assert all(type(p) is tuple for p in got)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]


def test_nowhere_zero_reads_the_same_stream():
    d, cfg = Domain(), SamplingConfig(seed=11)
    rng = random.Random(cfg.seed)
    while True:
        x1, x2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if x1 <= 0.0:
            break
    assert nowhere_zero(parse("log(x1)"), d, cfg) == (False, f"undefined at (x1={x1!r}, x2={x2!r})")


def _per_expression_range(e, points):
    """The range rule evaluated one expression at a time."""
    fn = compile_expr(e)
    lo, hi = math.inf, -math.inf
    for x1, x2 in points:
        try:
            v = fn(x1, x2)
        except EVAL_ERRORS:
            continue
        if v != v:
            return -math.inf, math.inf
        lo, hi = min(lo, v), max(hi, v)
    return lo, hi


def test_fused_sampled_range_matches_per_expression_ranges():
    points = sample_points(Domain(), SamplingConfig(samples=400, seed=5))
    exprs = [
        parse("exp(1000*x1)"),  # overflows, so the fused kernel raises, where x1 > 0.71
        parse("x1 + x2"),
        parse("x2*1e308*10"),  # +-inf where |x2| > 0.18
        parse("x2*1e308*10 - x2*1e308*10"),  # NaN there
        parse("log(x1)"),  # undefined where x1 <= 0
        parse("x1*0"),  # -0.0 and 0.0: the first of equal extremes is kept
    ]
    assert any(x1 > 0.71 for x1, _ in points) and any(x1 <= 0.0 for x1, _ in points)
    want = [_per_expression_range(e, points) for e in exprs]
    got = sampled_range(exprs, points)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
    assert got[3] == (-math.inf, math.inf) and math.inf in got[2]
    # Equal extremes: the first one met is kept, -0.0 or 0.0.
    for first in (0.5, -0.5):
        zeros = [(first, 0.0), (-first, 1.0)]
        lo, hi = sampled_range([parse("x1*0"), parse("x2")], zeros)[0]
        want_lo, want_hi = _per_expression_range(parse("x1*0"), zeros)
        assert (lo.hex(), hi.hex()) == (want_lo.hex(), want_hi.hex()) == ((first * 0).hex(),) * 2
    for e, pair in zip(exprs, want):
        assert sampled_range([e], points) == [pair]


def test_fused_sampled_range_nowhere_evaluable_column():
    points = sample_points(Domain(), SamplingConfig(samples=20))
    with pytest.raises(DomainTooSingularError):
        sampled_range([parse("x1"), parse("log(-1 - x1*x1)")], points)
