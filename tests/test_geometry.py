"""Frame, connection, and curvature of diagonal metrics."""

from __future__ import annotations

import pickle

import pytest

from ricciplane import numeric
from ricciplane.expr import (
    Constant,
    Domain,
    Sub,
    X1,
    compile_expr,
    parse,
)
from ricciplane.geometry import (
    DiagonalMetric,
    channel_coefficients,
    connection_table,
    frame_derivative,
    is_flat,
    lie_bracket,
    ricci,
    validate_metric,
)
from ricciplane.numeric import DomainTooSingularError, SamplingConfig, sample_points

from conftest import is_zero_constant

COSH_METRIC = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1)"))
FLAT_EXP = DiagonalMetric(parse("exp(x1)"), parse("exp(x2)"))
CONSTANTS = DiagonalMetric(parse("2"), parse("3"))
# depends on both variables in both components; exercises every term
GENERAL = DiagonalMetric(parse("exp(0.3*x1)*(2 + sin(x2))"), parse("(2 + cos(x1))*exp(0.2*x2)"))

ZERO = Constant(0.0)


def sampled_max(e, points):
    fn = compile_expr(e)
    return max(abs(fn(x1, x2)) for x1, x2 in points)


def test_frame_derivative_examples():
    assert frame_derivative(FLAT_EXP, X1, 1) == parse("exp(x1)")
    d = Domain()
    points = sample_points(d, SamplingConfig(samples=50))
    got = frame_derivative(COSH_METRIC, parse("exp(-x1)"), 1)
    want = parse("-(cosh(x1)*exp(-x1))")
    assert sampled_max(Sub(got, want), points) <= 1e-12
    assert frame_derivative(CONSTANTS, parse("x2"), 2) == Constant(3.0)


def test_channel_coefficients_examples():
    assert channel_coefficients(FLAT_EXP) == (ZERO, ZERO)
    assert channel_coefficients(CONSTANTS) == (ZERO, ZERO)
    h12, h21 = channel_coefficients(COSH_METRIC)
    assert h12 == ZERO
    points = sample_points(Domain(), SamplingConfig(samples=50))
    assert sampled_max(Sub(h21, parse("cosh(x1)")), points) <= 1e-12


def test_connection_table_flat_metric():
    conn = connection_table(CONSTANTS)
    for pair in conn.values():
        assert len(pair) == 2 and all(map(is_zero_constant, pair))


def test_connection_table_cosh_metric():
    conn = connection_table(COSH_METRIC)
    points = sample_points(Domain(), SamplingConfig(samples=50))
    for pair in (conn[(1, 1)], conn[(1, 2)]):
        assert len(pair) == 2 and all(map(is_zero_constant, pair))
    assert sampled_max(Sub(conn[(2, 2)][0], parse("cosh(x1)")), points) <= 1e-12
    assert conn[(2, 2)][1] == ZERO
    assert conn[(2, 1)][0] == ZERO
    assert sampled_max(Sub(conn[(2, 1)][1], parse("-cosh(x1)")), points) <= 1e-12


def test_torsion_free_identity():
    # nabla_{E1}E2 - nabla_{E2}E1 - [E1,E2] = 0, structurally and sampled
    for m in (COSH_METRIC, GENERAL, FLAT_EXP):
        conn = connection_table(m)
        bracket = lie_bracket(m)
        points = sample_points(Domain(), SamplingConfig(samples=100))
        for k in (0, 1):
            from ricciplane.expr import simplify

            torsion = simplify(Sub(Sub(conn[(1, 2)][k], conn[(2, 1)][k]), bracket[k]))
            assert torsion == ZERO
            assert sampled_max(torsion, points) <= 1e-9


def test_metric_compatibility_in_frame():
    # g(nabla_{E_i}E_j, E_k) + g(E_j, nabla_{E_i}E_k) = 0 on 200 points
    points = sample_points(Domain(), SamplingConfig(samples=200))
    for m in (COSH_METRIC, GENERAL):
        conn = connection_table(m)
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    total = parse("0") + conn[(i, j)][k - 1] + conn[(i, k)][j - 1]
                    assert sampled_max(total, points) <= 1e-9


def test_ricci_flat_examples():
    assert ricci(FLAT_EXP).rho == ZERO
    assert ricci(CONSTANTS).rho == ZERO
    assert is_flat(FLAT_EXP, Domain(), SamplingConfig()) is True
    assert is_flat(CONSTANTS, Domain(), SamplingConfig()) is True


def test_ricci_cosh_metric():
    curv = ricci(COSH_METRIC)
    assert compile_expr(curv.rho)(0.0, 0.0) == -1.0
    points = sample_points(Domain(), SamplingConfig(samples=100))
    want = parse("cosh(x1)*sinh(x1) - cosh(x1)^2")
    assert sampled_max(Sub(curv.rho, want), points) <= 1e-9
    assert sampled_max(Sub(curv.r, parse("2*(cosh(x1)*sinh(x1) - cosh(x1)^2)")), points) <= 1e-9
    assert is_flat(COSH_METRIC, Domain(), SamplingConfig()) is False


def test_curvature_is_computed_once_per_metric():
    m = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1) + x2^2"))
    before = pickle.dumps(m)
    curv = ricci(m)
    assert ricci(m) is curv
    h12, h21 = channel_coefficients(m)
    assert h12 is curv.h12 and h21 is curv.h21
    # The cache is no field: equality, hashing, repr and pickles are those
    # of (f1, f2), and a loaded metric derives its own equal curvature.
    twin = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1) + x2^2"))
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    assert pickle.dumps(m) == before
    loaded = pickle.loads(before)
    assert loaded == m and ricci(loaded) == curv


def test_ricci_scaled_exponentials_is_flat():
    m = DiagonalMetric(parse("1*exp(x1)"), parse("2*exp(x1)"))
    assert is_flat(m, Domain(), SamplingConfig()) is True


def test_validate_metric_rejects_sign_change():
    with pytest.raises(DomainTooSingularError, match="f2"):
        validate_metric(DiagonalMetric(parse("2"), parse("sin(x1)")), Domain(), SamplingConfig())
    validate_metric(COSH_METRIC, Domain(), SamplingConfig())
    # Both components fail (f2 is undefined at x1 < 0): f1's failure is raised.
    with pytest.raises(DomainTooSingularError, match=r"^metric component f1 = x1: sign change"):
        validate_metric(DiagonalMetric(parse("x1"), parse("log(x1)")), Domain(), SamplingConfig())


def test_validate_metric_checks_a_shared_component_once(monkeypatch):
    # One sweep kernel over the components, a shared node swept as one
    # group; a failing shared component is reported as f1.
    swept = []
    sweep = numeric._sweep
    monkeypatch.setattr(numeric, "_sweep", lambda groups, points: swept.append([list(g) for g in groups]) or sweep(groups, points))
    shared = DiagonalMetric(parse("exp(x1)"), parse("exp(x1)"))
    assert shared.f1 is shared.f2
    validate_metric(shared, Domain(), SamplingConfig())
    assert swept == [[[shared.f1]]] and swept[0][0][0] is shared.f1
    swept.clear()
    validate_metric(FLAT_EXP, Domain(), SamplingConfig())
    assert swept == [[[FLAT_EXP.f1], [FLAT_EXP.f2]]]
    swept.clear()
    sin = DiagonalMetric(parse("sin(x1)"), parse("sin(x1)"))
    with pytest.raises(DomainTooSingularError, match=r"^metric component f1 = sin\(x1\): sign change"):
        validate_metric(sin, Domain(), SamplingConfig())
    assert swept == [[[sin.f1]]]


def _fd_rho(m: DiagonalMetric, p: tuple[float, float], outer: float = 1e-4, inner: float = 1e-5) -> float:
    """rho recomputed purely from finite differences of f1, f2."""
    f1 = compile_expr(m.f1)
    f2 = compile_expr(m.f2)

    def h12_at(x1: float, x2: float) -> float:
        d2f1 = (f1(x1, x2 + inner) - f1(x1, x2 - inner)) / (2 * inner)
        return f2(x1, x2) / f1(x1, x2) * d2f1

    def h21_at(x1: float, x2: float) -> float:
        d1f2 = (f2(x1 + inner, x2) - f2(x1 - inner, x2)) / (2 * inner)
        return f1(x1, x2) / f2(x1, x2) * d1f2

    x1, x2 = p
    e1_h21 = f1(x1, x2) * (h21_at(x1 + outer, x2) - h21_at(x1 - outer, x2)) / (2 * outer)
    e2_h12 = f2(x1, x2) * (h12_at(x1, x2 + outer) - h12_at(x1, x2 - outer)) / (2 * outer)
    return e1_h21 + e2_h12 - h21_at(x1, x2) ** 2 - h12_at(x1, x2) ** 2


def test_rho_against_nested_finite_differences():
    points = sample_points(Domain(), SamplingConfig(samples=100))
    for m in (COSH_METRIC, GENERAL, FLAT_EXP):
        rho = compile_expr(ricci(m).rho)
        for p in points:
            assert abs(rho(*p) - _fd_rho(m, p)) <= 1e-4
