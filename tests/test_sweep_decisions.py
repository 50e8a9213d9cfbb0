"""Verdicts read from sweep kernels equal the per-point loops they replace.

`nowhere_zero`, the guard clearing of `sample_points` and the flat test
`is_probably_zero` decide from one `_extrema` sweep where they can, and
the flat test from the states the job's record holds for its points.  The per-point references below are the loops that
decided before; each test runs the package on chosen points (NaN, the
infinities, both zeros, values at the guard and just inside it, raising
points) and compares.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricciplane import expr, numeric
from ricciplane.expr import (
    EVAL_ERRORS,
    Constant,
    Domain,
    Variable,
    _finiteness_folds,
    _nodes,
    compile_expr,
    compile_many,
    denominators,
    is_probably_zero,
    parse,
)
from ricciplane.geometry import ricci
from ricciplane.numeric import DomainTooSingularError, SamplingConfig, _enough, sample_points

from conftest import load_corpus_pair

GUARD = 0.5
INSIDE = math.nextafter(GUARD, 0.0)  # the largest float below the guard
D = Domain(guard=GUARD)
_COORDS = [0.0, -0.0, GUARD, -GUARD, INSIDE, -INSIDE, 1.0, -3.0, 2.5, 1e200, -1e200, math.inf, -math.inf, math.nan]
# Sign changes, values at +-guard through x1 and x2, NaN from inf - inf
# and 0 * inf, raising points (1/x1 at both zeros, log and sqrt of
# negatives, exp overflow), and the constants 0.5, -0.5 and 2.5.
_POOL = ["x1", "x2", "-x1", "x1*x2", "x1*x2 - x1*x2", "1/x1", "log(x2)", "sqrt(x1)", "x1 + x2", "exp(x1)", "0.5", "-0.5", "2.5"]
_points = st.lists(st.tuples(st.sampled_from(_COORDS), st.sampled_from(_COORDS)), min_size=1, max_size=10)


def _record(points: list, monkeypatch) -> tuple[numeric._Stream, SamplingConfig]:
    """A stream record whose prefix is `points`, served to every call."""
    cfg = SamplingConfig(samples=len(points), seed=1)
    s = numeric._Stream(D, cfg.samples, cfg.seed)
    s.prefix = list(points)
    monkeypatch.setattr(numeric, "_Stream", lambda *key: s)
    return s, cfg


def _reference_nowhere_zero(e, points, guard) -> tuple[bool, str]:
    """The per-point scan that decided `nowhere_zero` before."""
    fn = compile_expr(e)
    saw_pos = saw_neg = False
    for x1, x2 in points:
        try:
            v = fn(x1, x2)
        except EVAL_ERRORS:
            return False, f"undefined at (x1={x1!r}, x2={x2!r})"
        if guard <= v < math.inf:
            if saw_neg:
                return False, numeric._SIGN_CHANGE
            saw_pos = True
        elif -math.inf < v <= -guard:
            if saw_pos:
                return False, numeric._SIGN_CHANGE
            saw_neg = True
        elif abs(v) < guard:
            return False, f"|value| = {abs(v)!r} < guard at (x1={x1!r}, x2={x2!r})"
        else:
            return False, f"non-finite value {v!r} at (x1={x1!r}, x2={x2!r})"
    return True, ""


@given(_points, st.integers(0, len(_POOL) - 1))
@settings(max_examples=400, deadline=None)
@example([(GUARD, 0.0), (1e200, 0.0)], 0)  # at the guard: passes
@example([(INSIDE, 0.0)], 0)  # just inside it
@example([(-GUARD, 0.0), (-INSIDE, 0.0)], 0)
@example([(1.0, 0.0), (-1.0, 0.0)], 0)  # a sign change
@example([(math.inf, 0.0)], 0)
@example([(math.nan, 0.0)], 0)
@example([(1.0, 0.0), (-0.0, 0.0)], 5)  # raises at -0.0
def test_nowhere_zero_verdict_equals_the_per_point_scan(points, which):
    e = parse(_POOL[which])
    expected = _reference_nowhere_zero(e, points, GUARD)
    with pytest.MonkeyPatch.context() as monkeypatch:
        s, cfg = _record(points, monkeypatch)
        scans = []
        scan = numeric._scan_nowhere_zero
        monkeypatch.setattr(numeric, "_scan_nowhere_zero", lambda *args: scans.append(args) or scan(*args))
        assert numeric.nowhere_zero(e, D, cfg) == expected
    # The sweep alone decides a pass; the scan runs only for a failure's message.
    assert len(scans) == (0 if expected[0] else 1)
    assert (e in s.cleared) is expected[0]


def _accepts(g, p) -> bool:
    """Whether `_draw_pass` accepts the candidate p for the guard g."""
    try:
        return not abs(compile_expr(g)(*p)) < GUARD
    except EVAL_ERRORS:
        return False


def _reference_clears(g, points) -> bool:
    """The clearing rule on a per-point fold: defined at every point,
    and lo >= guard or hi <= -guard over the values that are not NaN."""
    f = compile_expr(g)
    values = []
    for p in points:
        try:
            values.append(f(*p))
        except EVAL_ERRORS:
            return False
    values = [v for v in values if v == v]
    return all(v >= GUARD for v in values) or all(v <= -GUARD for v in values)


@given(_points, st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
@example([(math.nan, 1.0), (1.0, 1.0)], [0])  # NaN-valued at one candidate
@example([(1.0, 1.0), (-1.0, 1.0)], [0])  # clears +-guard, changes sign
@example([(math.inf, 1.0)], [4])  # inf - inf: NaN everywhere
@example([(GUARD, 1.0), (INSIDE, 1.0)], [0, 12])  # just inside the guard
def test_a_cleared_guard_accepts_every_candidate(points, which):
    guards = list(dict.fromkeys(parse(_POOL[i]) for i in which))
    with pytest.MonkeyPatch.context() as monkeypatch:
        s, cfg = _record(points, monkeypatch)
        passes, sweeps = [], []
        draw_pass, sweep = numeric._draw_pass, numeric._sweep_prefix
        monkeypatch.setattr(numeric, "_draw_pass", lambda *args: passes.append(args[2]) or draw_pass(*args))
        monkeypatch.setattr(numeric, "_sweep_prefix", lambda *args: sweeps.append((args[0], sweep(*args))) or sweeps[-1][1])
        try:
            got = sample_points(D, cfg, guards)
        except DomainTooSingularError:
            got = None
    # No guard was cleared before: one sweep over all of them.
    [(swept, results)] = sweeps
    assert swept == guards
    assert [clears for _, clears in results] == [_reference_clears(g, points) for g in guards]
    cleared = [g for g, (_, clears) in zip(guards, results) if clears]
    for g in cleared:
        assert all(_accepts(g, p) for p in points)
        assert draw_pass(D, cfg, (g,), s) is s.prefix
    # The pass runs iff the sweep left a guard uncleared.
    assert len(passes) == (0 if len(cleared) == len(guards) else 1)
    if not passes:
        assert got is s.prefix


def test_a_nan_valued_guard_clears_and_a_mixed_sign_guard_runs_its_pass(monkeypatch):
    x1 = parse("x1")
    s, cfg = _record([(math.nan, 0.0), (2.5, 0.0)], monkeypatch)
    passes = []
    draw_pass = numeric._draw_pass
    monkeypatch.setattr(numeric, "_draw_pass", lambda *args: passes.append(args[2]) or draw_pass(*args))
    # x1 is NaN at the first candidate, which `_draw_pass` accepts.
    assert sample_points(D, cfg, [x1]) is s.prefix
    assert passes == [] and x1 in s.cleared
    # -x1 clears the guard at every candidate, but on both sides of zero.
    s, cfg = _record([(-1.0, 0.0), (1.0, 0.0)], monkeypatch)
    neg = parse("-x1")
    assert sample_points(D, cfg, [neg]) is s.prefix
    assert passes == [(neg,)] and neg in s.cleared


def _reference_is_probably_zero(e, points, cfg) -> bool:
    """The per-point loop that decided `is_probably_zero` before."""
    fn = compile_many(_nodes([e])[::-1])
    tol, enough = cfg.tolerance, _enough(cfg.samples)
    evaluated = 0
    verdict = True
    for x1, x2 in points:
        try:
            row = fn(x1, x2)
        except EVAL_ERRORS:
            continue
        evaluated += 1
        verdict = verdict and (
            (-tol <= row[0] <= tol and math.isfinite(sum(row)))
            or (all(map(math.isfinite, row)) and abs(row[0]) <= tol * (1.0 + max(map(abs, row))))
        )
        if not verdict and evaluated >= enough:
            return False
    if evaluated < enough:
        raise DomainTooSingularError(f"only {evaluated} of {cfg.samples} requested points were evaluable")
    return verdict


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainTooSingularError as err:
        return str(err)


# Flat on every point, flat where defined (raising elsewhere), flat up
# to rounding (the scale rule), flat with a node that overflows to inf
# (x1^400 at 1e200; exp raises instead), non-flat, and constants, and
# zero where x1 >= 0 only.
_ZERO_POOL = [
    "x1 - x1", "x1*x2 - x1*x2", "0*x1", "1/x1 - 1/x1", "sqrt(x1) - sqrt(x1)", "sin(x1)^2 + cos(x1)^2 - 1",
    "x1 + 10000000000 - 10000000000 - x1", "1/x1^400*0", "exp(1000*x1)*0", "x1", "x1*x2", "0", "1e-12", "2",
    "x1 - abs(x1)",
]
_zero_points = st.lists(
    st.tuples(st.sampled_from([*_COORDS, 0.3, -0.7, 10.0, 1e-12]), st.sampled_from([0.0, 1.0, -2.0, math.nan])),
    max_size=10,
)


@given(_zero_points, st.integers(0, len(_ZERO_POOL) - 1), st.integers(1, 21), st.sampled_from([1e-9, 1e-3]))
@settings(max_examples=500, deadline=None)
@example([(0.0, 1.0), (1.0, 1.0)], 9, 2, 1e-9)  # zero at first, then above tol
@example([(0.3, 1.0), (-0.7, 1.0)], 14, 2, 1e-9)  # zero at first, then below -tol
@example([(0.3, 1.0), (10.0, 1.0)], 7, 2, 1e-9)  # zero at first, then a node is inf
@example([(0.3, 1.0), (1e200, 1.0)], 7, 2, 1e-9)
@example([(-1.0, 0.0), (0.0, 0.0)], 3, 4, 1e-9)  # below half evaluable
@example([(-1.0, 0.0), (-3.0, 0.0)], 4, 1, 1e-9)  # nowhere evaluable
@example([(0.3, 0.0), (1e200, 0.0)], 6, 2, 1e-9)  # flat up to rounding only
@example([(0.3, 0.0)], 11, 1, 1e-9)  # a Constant
def test_is_probably_zero_equals_the_per_point_loop(points, which, samples, tol):
    e = parse(_ZERO_POOL[which])
    cfg = SamplingConfig(samples=samples, seed=1, tolerance=tol)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(numeric, "sample_points", lambda d, c, guards=(): points)
        assert _outcome(is_probably_zero, e, Domain(), cfg) == _outcome(_reference_is_probably_zero, e, points, cfg)


def test_a_flat_expression_with_an_overflowing_node_is_not_zero(monkeypatch):
    # 1/x1^400*0 is 0 wherever it is defined, but x1^400 is inf where
    # x1 > 5.9: the first point (x1 = 5.47) reads as zero, the sweep sees
    # that the fold x1^400 (a Div denominator) is infinite, and the
    # per-point reading finds the first point that does not read as
    # zero.  The job records only the guard x1, so the test sweeps e with
    # its fold and its variable.  (exp(1000*x1) would raise there instead.)
    e = parse("1/x1^400*0")
    d, cfg = Domain(x1_range=(1.0, 8.0)), SamplingConfig()
    swept = []
    extrema = numeric._extrema
    with numeric._job_stream():
        points = sample_points(d, cfg, denominators(e))  # clears them: each is >= 1 or inf
        assert points[0][0] < 5.9 and max(x1 for x1, _ in points) > 5.9
        monkeypatch.setattr(numeric, "_extrema", lambda groups, pts: swept.append(groups) or extrema(groups, pts))
        assert is_probably_zero(e, d, cfg) is False
    x1, x1_400 = parse("x1"), parse("x1^400")
    assert _finiteness_folds(e) == [x1_400]
    assert swept == [[[e], [x1_400], [x1]]]
    assert _reference_is_probably_zero(e, points, cfg) is False


def test_a_constant_is_decided_without_a_kernel(monkeypatch):
    kernels = []
    compile_sweep = numeric.compile_sweep
    monkeypatch.setattr(numeric, "compile_sweep", lambda exprs: kernels.append(exprs) or compile_sweep(exprs))
    assert is_probably_zero(Constant(0.0), Domain(), SamplingConfig()) is True
    assert is_probably_zero(Constant(1e-12), Domain(), SamplingConfig()) is True
    assert is_probably_zero(Constant(2.0), Domain(), SamplingConfig()) is False
    assert kernels == []


def _corpus_rho(name: str):
    return ricci(load_corpus_pair(name)[0]).rho


def test_the_corpus_flat_tests_need_at_most_one_fold():
    assert _finiteness_folds(_corpus_rho("ex04_rotating_equal_scales.json")) == []
    assert _finiteness_folds(_corpus_rho("ex04_rotating_unequal_scales.json")) == []
    assert _finiteness_folds(_corpus_rho("ex03_cosh_metric.json")) == [parse("exp(x1)^2")]


@pytest.mark.parametrize(
    "text, folds",
    [
        ("x2/(x1*x2)", ["x1*x2"]),  # a Div denominator: x/inf = 0
        ("tanh(x1*x2) - 1", ["x1*x2"]),  # tanh(inf) = 1
        ("sign(x1 + 1)", ["x1 + 1"]),  # sign(nan) = -1
        ("sech(x1*x2)", ["x1*x2"]),
        ("(x1*x2)^0.5", ["x1*x2"]),  # a non-integer power
        ("(x1 + 1)^(-2)", ["x1 + 1"]),  # a negative one
        ("exp(x1)^x2", ["exp(x1)"]),  # a power that is not a constant
        ("x1/1e400", ["1e400"]),  # a constant that is not finite
        ("(x1*x2)^3 + log(x1*x2) - sqrt(abs(sin(x1 + x2)))", []),
        ("exp(x1*x2)*(x1*x2)", []),  # a product reaches x1*x2 as well
        ("x1/exp(x1*x2)", ["exp(x1*x2)", "x1*x2"]),  # a fold's own operand
    ],
)
def test_finiteness_folds_are_the_operands_no_finite_parent_covers(text, folds):
    assert _finiteness_folds(parse(text)) == [parse(f) for f in folds]


def test_a_flat_product_needs_the_fold_under_exp():
    # exp(-(x1^400))*0 is 0 at every point, but x1^400 is inf where
    # x1 > 5.9 and exp(-inf) = 0: the fold -(x1^400) is what shows it.
    e, d, cfg = parse("exp(-(x1^400))*0"), Domain(x1_range=(1.0, 8.0)), SamplingConfig()
    assert _finiteness_folds(e) == [parse("-(x1^400)")]
    assert _reference_is_probably_zero(e, sample_points(d, cfg, denominators(e)), cfg) is False
    with numeric._job_stream():
        assert is_probably_zero(e, d, cfg) is False
    with pytest.MonkeyPatch.context() as monkeypatch:
        # Without the fold, the range rule would accept.
        monkeypatch.setattr(expr, "_finiteness_folds", lambda e: [])
        assert is_probably_zero(e, d, cfg) is True


def _rows(e, points) -> list:
    """The row of every node of `e` at each point, None where undefined."""
    fn = compile_many(_nodes([e])[::-1])
    rows = []
    for p in points:
        try:
            rows.append(fn(*p))
        except EVAL_ERRORS:
            rows.append(None)
    return rows


def _reads_zero(row, tol: float) -> bool:
    return all(map(math.isfinite, row)) and abs(row[0]) <= tol * (1.0 + max(map(abs, row)))


# The zero pool, and flat products whose only non-finite node sits under
# exp, tanh or sign, where x1^400 overflows (x1 > 5.9).  x1 is not
# cleared as a guard with guard 0.3 on [-1, 1].
_RECORDED_POOL = [*_ZERO_POOL, "exp(-(x1^400))*0", "tanh(x1^400) - 1", "sign(x1^400) - 1"]
_RECORDED_DOMAINS = [Domain(), Domain(guard=0.3), Domain(x1_range=(1.0, 8.0)), Domain(x1_range=(6.0, 8.0))]


@given(
    st.integers(0, len(_RECORDED_POOL) - 1),
    st.sampled_from(_RECORDED_DOMAINS),
    st.integers(1, 40),
    st.integers(0, 50),
    st.sampled_from([1e-9, 1e-3]),
)
@settings(max_examples=300, deadline=None)
@example(3, _RECORDED_DOMAINS[1], 20, 0, 1e-9)  # 1/x1 - 1/x1: the guard x1 is not cleared
@example(len(_ZERO_POOL), _RECORDED_DOMAINS[2], 40, 0, 1e-9)  # the fold under exp
@example(len(_ZERO_POOL) + 1, _RECORDED_DOMAINS[3], 10, 0, 1e-9)  # tanh(inf) - 1 = 0
@example(9, _RECORDED_DOMAINS[0], 10, 0, 1e-9)  # x1: not zero at the first point
def test_a_recorded_sweep_decides_as_the_per_point_loop(which, d, samples, seed, tol):
    """In a job scope whose record holds e and its folds over the
    prefix, the zero test gives the per-point answer.  On the prefix it
    sweeps nothing and reads no row past the first evaluable one unless
    that one reads as zero; where a guard of e is not cleared, its points
    are another list and it sweeps e, its folds and its variables.  A
    second call reads the record of its own list and sweeps nothing."""
    e = parse(_RECORDED_POOL[which])
    cfg = SamplingConfig(samples=samples, seed=seed, tolerance=tol)
    folds = _finiteness_folds(e)
    swept, read = [], []
    with pytest.MonkeyPatch.context() as monkeypatch, numeric._job_stream():
        s = numeric._once_per_job(numeric._Stream, d, cfg.samples, cfg.seed)
        numeric._sweep_prefix([e, *folds], s, d.guard)
        points = _outcome(sample_points, d, cfg, denominators(e))
        extrema, kernel = numeric._extrema, expr.compile_many
        monkeypatch.setattr(numeric, "_extrema", lambda groups, pts: swept.append(groups) or extrema(groups, pts))
        monkeypatch.setattr(
            expr, "compile_many", lambda exprs: (lambda f: lambda x1, x2: read.append(1) or f(x1, x2))(kernel(exprs))
        )
        got = _outcome(is_probably_zero, e, d, cfg)
        first, reads = list(swept), len(read)
        assert _outcome(is_probably_zero, e, d, cfg) == got
        assert swept == first
        del read[reads:]
    if isinstance(points, str):  # the guards' pass failed
        assert got == points
        return
    assert got == _outcome(_reference_is_probably_zero, e, points, cfg)
    if points is s.prefix:
        assert swept == []
        rows = _rows(e, points)
        k = next((k for k, row in enumerate(rows) if row is not None), None)
        assert len(read) <= (0 if k is None else k + 1) or _reads_zero(rows[k], tol)
    else:
        variables = [[v] for v in _nodes([e])[::-1] if isinstance(v, Variable)]
        assert swept in ([], [[[e], *[[f] for f in folds], *variables]])
