"""Grouped max-abs sweeps: several groups of expressions evaluated in one
kernel and one pass over the points, each group keeping its own drops,
maxima and shortfall; and the one "fewer than half" rule."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricciplane import cli, numeric
from ricciplane.expr import (
    EVAL_ERRORS,
    Constant,
    Domain,
    Var,
    compile_expr,
    differentiate,
    is_probably_zero,
    parse,
)
from ricciplane.families import admissibility
from ricciplane.geometry import DiagonalMetric
from ricciplane.numeric import (
    DomainTooSingularError,
    SamplingConfig,
    _job_stream,
    covered_sweep,
    sample_points,
    sampled_max_abs,
    sampled_range,
)

from conftest import CORPUS

D = Domain()
CFG = SamplingConfig(samples=200, seed=5)


def test_grouped_sweep_equals_separate_calls():
    # log(x1) is undefined at the unguarded points with x1 <= 0; the
    # other groups keep those points.
    points = sample_points(D, CFG)
    groups = [[parse("log(x1)")], [parse("x1^2")], [parse("x1*x2"), parse("sqrt(x2)")], []]
    grouped = sampled_max_abs(groups, points)
    assert grouped == [sampled_max_abs([g], points)[0] for g in groups]
    assert 0 < grouped[0][1] < len(points)
    assert grouped[1][1] == len(points)
    assert grouped[3] == ([], len(points))


def test_non_finite_value_is_inf_in_its_own_group_only():
    points = [(10.5, 0.0), (11.0, 0.5)]
    nan = parse("x1^400 - x1^399*x1")  # inf - inf
    big = parse("x1^400")  # overflows to inf
    grouped = sampled_max_abs([[nan], [big, parse("x2")], [parse("x1")]], points)
    assert grouped == [([math.inf], 2), ([math.inf, 0.5], 2), ([11.0], 2)]


def _count_fused_raises(monkeypatch) -> list:
    """Record the point each time a kernel from `numeric.compile_sweep` raises."""
    raises = []
    compile_sweep = numeric.compile_sweep

    def counting(exprs):
        fn = compile_sweep(exprs)

        def kernel(points, state):
            state, raised = fn(points, state)
            if raised is not None:
                raises.append(raised)
            return state, raised

        return kernel

    monkeypatch.setattr(numeric, "compile_sweep", counting)
    return raises


def test_sweeps_run_the_fused_kernel_once_where_it_raises(monkeypatch):
    points = sample_points(D, CFG)
    undefined = [p for p in points if p[0] < 0]  # sqrt(x1)
    assert 0 < len(undefined) < len(points)
    root, x2 = parse("sqrt(x1)"), parse("x2")
    sqrt_values = [compile_expr(root)(*p) for p in points if p[0] >= 0]
    x2_values = [p[1] for p in points]
    raises = _count_fused_raises(monkeypatch)
    [(maxima, used)] = sampled_max_abs([[root, x2]], points)
    assert raises == undefined
    assert used == len(points) - len(undefined)
    assert maxima == [max(sqrt_values), max(abs(x2) for x1, x2 in points if x1 >= 0)]
    raises.clear()
    ranges = sampled_range([root, x2], points)
    assert raises == undefined
    assert ranges == [(min(sqrt_values), max(sqrt_values)), (min(x2_values), max(x2_values))]


def test_covered_groups_match_one_group_calls():
    guards = (parse("x1 + 2"),)
    groups = [[parse("1/x1")], [parse("x2/(x1 - 0.5)"), parse("x1")], [parse("x2")]]
    separate = [covered_sweep([g], (), D, CFG, guards, "e")[0][0] for g in groups]
    assert covered_sweep(groups, (), D, CFG, guards, "e")[0] == separate
    with _job_stream():
        assert covered_sweep(groups, (), D, CFG, guards, "e")[0] == separate


def test_covered_groups_accept_a_lazy_sequence():
    groups = [[parse("x1")], [parse("x2")]]
    assert covered_sweep(iter(groups), (), D, CFG, (), "e")[0] == covered_sweep(groups, (), D, CFG, (), "e")[0]


SHORT = [parse("sqrt(x1 - 0.5)")]  # evaluable at a quarter of the points
SHORTER = [parse("sqrt(x1 - 0.8)")]  # at a tenth
UNSAMPLEABLE = [parse("1/(x1 - x1)")]  # its guard rejects every candidate


def _used(group):
    return sampled_max_abs([group], sample_points(D, CFG))[0][1]


def test_earlier_shortfall_beats_later_sampling_error():
    with pytest.raises(DomainTooSingularError, match=f"only {_used(SHORT)} of 200"):
        covered_sweep([[parse("x1")], SHORT, UNSAMPLEABLE], (), D, CFG, (), "e")[0]


def test_first_shortfall_in_group_order_wins():
    with pytest.raises(DomainTooSingularError, match=f"e were evaluable at only {_used(SHORTER)} of 200"):
        covered_sweep([SHORTER, SHORT], (), D, CFG, (), "e")[0]
    with pytest.raises(DomainTooSingularError, match=f"only {_used(SHORT)} of 200"):
        covered_sweep([SHORT, SHORTER], (), D, CFG, (), "e")[0]


def test_later_sampling_error_surfaces_when_earlier_groups_are_fine():
    with pytest.raises(DomainTooSingularError, match="accepted 0 of 200 requested points"):
        covered_sweep([[parse("x1")], UNSAMPLEABLE, SHORT], (), D, CFG, (), "e")[0]


def test_ranged_expressions_are_swept_with_the_groups():
    guards = (parse("x1 + 2"),)
    groups = [[parse("1/x1")], [parse("x2"), parse("x1")]]
    ranged = [parse("x1"), parse("log(x1)"), parse("x2/(x1 - 0.5)")]
    with _job_stream():
        maxima, ranges = covered_sweep(groups, ranged, D, CFG, guards, "e")
        assert maxima == covered_sweep(groups, (), D, CFG, guards, "e")[0]
        points = sample_points(D, CFG, numeric.merge_guards(guards, ranged))
        assert ranges == sampled_range(ranged, points)
    assert covered_sweep(groups, ranged, D, CFG, guards, "e") == (maxima, ranges)
    assert covered_sweep(groups, (), D, CFG, guards, "e") == (maxima, [])


def test_a_shortfall_beats_the_errors_of_ranged_expressions():
    # log(x1 - 5) is nowhere evaluable on D; 1/(x1 - x1) cannot be sampled.
    for ranged, error in (([NOWHERE], "nowhere evaluable"), (UNSAMPLEABLE, "accepted 0 of 200")):
        with pytest.raises(DomainTooSingularError, match=f"only {_used(SHORT)} of 200"):
            covered_sweep([[parse("x1")], SHORT], ranged, D, CFG, (), "e")
        with pytest.raises(DomainTooSingularError, match=error):
            covered_sweep([[parse("x1")]], ranged, D, CFG, (), "e")


def test_build_error_surfaces_after_earlier_groups_are_checked():
    def groups(first):
        yield first
        raise RuntimeError("cannot build the second group")

    with pytest.raises(RuntimeError, match="second group"):
        covered_sweep(groups([parse("x1")]), (), D, CFG, (), "e")[0]
    with pytest.raises(DomainTooSingularError, match="evaluable at only"):
        covered_sweep(groups(SHORT), (), D, CFG, (), "e")[0]


# "Fewer than half the requested points" rounds half up everywhere: with
# 3 samples and seed 1, one of the three points of Domain() has x1 >= 0.
THREE = SamplingConfig(samples=3, seed=1, tolerance=1e-9)


def test_half_rule_draws():
    assert [x1 >= 0 for x1, _ in sample_points(D, THREE)] == [False, True, False]


def test_covered_max_abs_needs_half_the_points_rounded_up():
    with pytest.raises(DomainTooSingularError, match="only 1 of 3"):
        covered_sweep([[parse("sqrt(x1)")]], (), D, THREE, (), "e")[0]


def test_zero_test_needs_half_the_points_rounded_up():
    with pytest.raises(DomainTooSingularError, match="only 1 of 3"):
        is_probably_zero(parse("sqrt(x1) - sqrt(x1)"), D, THREE)


def test_admissibility_needs_half_the_points_rounded_up():
    m = DiagonalMetric(parse("sqrt(x1)"), parse("exp(x1)"))
    assert is_probably_zero(differentiate(m.f2, Var.X2), D, THREE)
    with pytest.raises(DomainTooSingularError, match="only 1 of 3"):
        admissibility("branch2", m, D, THREE)


# Constant outputs are reduced once per sweep, not at every point.  The
# constants are built in each test: an interned NaN node that outlived a
# test would be served to later tests that build NaN with the other sign.
NOWHERE = parse("log(x1 - 5)")  # undefined on all of D


def _constants() -> list[Constant]:
    return [Constant(v) for v in (0.0, -0.0, 2.5, math.inf, -math.inf, math.nan)]


def _mixed_groups() -> list[list]:
    zero, neg_zero, two_half, inf, neg_inf, nan = _constants()
    return [
        [zero, parse("sqrt(x1)"), neg_zero, two_half],
        [inf, parse("x1*x2"), neg_inf, nan, parse("x2")],
        [nan, neg_zero, neg_inf, zero, inf, two_half],  # constants only
        [two_half, NOWHERE, nan],  # dropped at every point
        [],
    ]


def _hex(values):
    return [v.hex() for v in values]


def _reference_max_abs(group, points):
    """`sampled_max_abs` of one group, one point and one expression at a time."""
    kernels = [compile_expr(e) for e in group]
    maxima, used = [0.0] * len(group), 0
    for p in points:
        try:
            row = [f(*p) for f in kernels]
        except EVAL_ERRORS:
            continue
        used += 1
        for i, v in enumerate(row):
            v = math.inf if v != v else abs(v)
            if v > maxima[i]:
                maxima[i] = v
    return maxima, used


def _reference_range(e, points):
    """`sampled_range` of one expression, one point at a time."""
    f = compile_expr(e)
    values = []
    for p in points:
        try:
            values.append(f(*p))
        except EVAL_ERRORS:
            pass
    if not values:
        raise DomainTooSingularError("expression was nowhere evaluable on the sample")
    if any(v != v for v in values):
        return -math.inf, math.inf
    lo, hi = math.inf, -math.inf
    for v in values:
        lo, hi = (v if v < lo else lo), (v if v > hi else hi)
    return lo, hi


def _kernel_inputs(monkeypatch) -> list:
    """Record the expressions of each `numeric.compile_sweep` and
    `numeric.compile_many` call."""
    inputs = []
    for name in ("compile_sweep", "compile_many"):
        compile_fn = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda exprs, f=compile_fn: inputs.append(list(exprs)) or f(exprs))
    return inputs


@pytest.mark.parametrize("n", [200, 1, 0])
def test_constant_maxima_equal_a_per_point_loop(monkeypatch, n):
    points = sample_points(D, CFG)[:n]
    groups = _mixed_groups()
    inputs = _kernel_inputs(monkeypatch)
    grouped = sampled_max_abs(groups, points)
    assert not any(isinstance(e, Constant) for exprs in inputs for e in exprs)
    reference = [_reference_max_abs(g, points) for g in groups]
    assert [(_hex(maxima), used) for maxima, used in grouped] == [(_hex(m), u) for m, u in reference]
    assert [sampled_max_abs([g], points)[0] for g in groups] == grouped


def test_a_group_dropped_at_every_point_keeps_zero_maxima():
    points = sample_points(D, CFG)
    two_half, nan = Constant(2.5), Constant(math.nan)
    assert sampled_max_abs([[two_half, NOWHERE, nan]], points) == [([0.0, 0.0, 0.0], 0)]
    # The same constants in a group that used the points.
    assert sampled_max_abs([[two_half, parse("x1"), nan]], points)[0][0][::2] == [2.5, math.inf]


def test_constants_only_run_no_kernel_at_any_point(monkeypatch):
    points = sample_points(D, CFG)
    calls = []
    compile_sweep = numeric.compile_sweep

    def counting(exprs):
        fn = compile_sweep(exprs)
        return lambda stream, state: fn((calls.append(p) or p for p in stream), state)

    monkeypatch.setattr(numeric, "compile_sweep", counting)
    [(maxima, used)] = sampled_max_abs([_constants()], points)
    ranges = sampled_range(_constants(), points)
    assert calls == []
    assert used == len(points)
    assert _hex(maxima) == _hex([0.0, 0.0, 2.5, math.inf, math.inf, math.inf])
    assert [_hex(r) for r in ranges] == [
        _hex(r) for r in [(0.0, 0.0), (-0.0, -0.0), (2.5, 2.5), (math.inf,) * 2, (-math.inf,) * 2, (-math.inf, math.inf)]
    ]


def test_constant_ranges_equal_a_per_point_loop(monkeypatch):
    points = sample_points(D, CFG)
    exprs = [e for g in _mixed_groups()[:3] for e in g]
    inputs = _kernel_inputs(monkeypatch)
    ranges = sampled_range(exprs, points)
    assert not any(isinstance(e, Constant) for exprs in inputs for e in exprs)
    assert [_hex(r) for r in ranges] == [_hex(_reference_range(e, points)) for e in exprs]
    assert [_hex(sampled_range([e], points)[0]) for e in exprs] == [_hex(r) for r in ranges]


def test_constant_range_on_no_points_is_nowhere_evaluable():
    _, neg_zero, two_half, inf, _, nan = _constants()
    for exprs in ([two_half], [nan], [neg_zero, parse("x1")], [parse("x1"), inf]):
        with pytest.raises(DomainTooSingularError, match="nowhere evaluable"):
            sampled_range(exprs, [])


# Coordinates that give NaN, the infinities and both zeros at the
# extremes, and points where some expressions raise: 1/x1 at both
# zeros, log(x2) at x2 <= 0, sqrt(x1) where x1 < 0 (sqrt(-0.0) is -0.0).
_COORDS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e200, -1e200, math.inf, -math.inf, math.nan]
_POOL = ["x1", "x2", "-x1", "x1*x2", "x1*x2 - x1*x2", "1/x1", "log(x2)", "sqrt(x1)", "x1 + x2"]
_points = st.lists(st.tuples(st.sampled_from(_COORDS), st.sampled_from(_COORDS)), max_size=12)
# Each group indexes _POOL followed by the six `_constants()`.
_groups = st.lists(st.lists(st.integers(0, len(_POOL) + 5), max_size=4), min_size=1, max_size=4)


@given(_points, _groups)
@settings(max_examples=300, deadline=None)
# log(x2) raises at the first point, where x1 is -0.0; folded after the
# 0.0 that follows, it would leave the range of x1 at 0.0.
@example([(-0.0, 0.0), (0.0, 1.0)], [[0, 6]])
def test_sweeps_equal_an_in_order_per_point_loop(points, groups):
    pool = [parse(s) for s in _POOL] + _constants()
    groups = [[pool[i] for i in g] for g in groups]
    reference = [_reference_max_abs(g, points) for g in groups]
    assert [(_hex(m), u) for m, u in sampled_max_abs(groups, points)] == [(_hex(m), u) for m, u in reference]
    flat = [e for g in groups for e in g]
    try:
        expected = [_hex(_reference_range(e, points)) for e in flat]
    except DomainTooSingularError:
        with pytest.raises(DomainTooSingularError, match="nowhere evaluable"):
            sampled_range(flat, points)
    else:
        assert [_hex(r) for r in sampled_range(flat, points)] == expected


def test_a_verify_job_whose_residual_kernel_raises_keeps_its_report(tmp_path, capsys):
    # log(x1 + 0.5) is undefined where x1 <= -0.5, at 481 of the 2 000
    # points, so the residual sweep resumes after each of them.  The
    # figures were recorded before the sweeps folded in generated code.
    body = json.loads((CORPUS / "ex03_cosh_metric.json").read_text(encoding="utf-8"))
    body["field"]["V1"] = "log(x1 + 0.5)"
    spec = tmp_path / "log_v1.json"
    spec.write_text(json.dumps(body), encoding="utf-8")
    assert cli.main(["verify", "--spec", str(spec), "--samples", "2000"]) == cli.EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    assert _hex(report["residual_max"]) == ["0x1.301140dd29246p+17", "0x1.ba1231c5eb42bp+3", "0x0.0p+0", "0x0.0p+0"]
    assert report["points_used"] == 1519
    assert _hex(report["rho_range"]) == ["-0x1.0c10f07837d5ap+2", "-0x1.22a89a8da2d4ep-1"]


def _states_hex(results) -> list:
    """`_extrema` results bit for bit: each (lo, hi, saw_nan) by float.hex, and the count used."""
    return [([(lo.hex(), hi.hex(), nan) for lo, hi, nan in states], used) for states, used in results]


# Each call: over the one-point slice or the whole list, and which groups, in order.
_calls = st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 3), max_size=5)), min_size=1, max_size=6)


@given(_points, _groups, _calls)
@settings(max_examples=300, deadline=None)
@example([(1.0, 2.5), (-0.0, 0.0)], [[0, 5], [0, 5]], [(False, [0, 1]), (True, [1, 0]), (False, [1])])
def test_the_job_record_sweeps_each_group_and_list_once(points, groups, calls):
    """In a job scope, `_extrema` on any sub-combination of groups, in any
    order, over one list or a one-point slice of it gives what one
    unscoped sweep of each group alone gives, bit for bit; and it runs a
    sweep kernel only over the groups the record does not hold."""
    pool = [parse(s) for s in _POOL] + _constants()
    groups = [[pool[i] for i in g] for g in groups]
    lists = (points, points[:1])
    alone = {(i, k): _states_hex(numeric._extrema([g], lst)) for i, g in enumerate(groups) for k, lst in enumerate(lists)}
    sweeps, kernels = [], []
    sweep, compile_sweep = numeric._sweep, numeric.compile_sweep
    with pytest.MonkeyPatch.context() as monkeypatch, _job_stream():
        monkeypatch.setattr(numeric, "_sweep", lambda gs, pts: sweeps.append((list(gs), pts)) or sweep(gs, pts))
        monkeypatch.setattr(numeric, "compile_sweep", lambda exprs: kernels.append(exprs) or compile_sweep(exprs))
        requested = set()
        for one_point, chosen in calls:
            chosen = [i % len(groups) for i in chosen]
            got = numeric._extrema([groups[i] for i in chosen], lists[one_point])
            assert _states_hex(got) == [r for i in chosen for r in alone[i, one_point]]
            requested |= {(tuple(groups[i]), id(lists[one_point])) for i in chosen}
    # Each (group, list) asked for is swept once, and no other.
    swept = [(g, id(pts)) for gs, pts in sweeps for g in gs]
    assert len(swept) == len(set(swept)) and set(swept) == requested
    # One kernel per sweep that holds an expression other than a constant.
    assert len(kernels) == sum(any(not isinstance(e, Constant) for g in gs for e in g) for gs, _ in sweeps)


def test_a_freed_point_list_lends_no_record():
    # Each list below is freed after its call, and the next may get its
    # id: the record holds every list it keys on, so none is reused
    # within the job.
    x1 = parse("x1")
    with _job_stream():
        for v in (1.0, 2.0, 3.0, 4.0):
            [([state], used)] = numeric._extrema([[x1]], [(v, 0.0)])
            assert (state, used) == ((v, v, False), 1)
