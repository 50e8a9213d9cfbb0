"""The field equation nabla V = Q: covariant entries, residuals,
verification verdicts, and the consequences forced by the system."""

from __future__ import annotations

import pytest

from ricciplane.expr import (
    Constant,
    Domain,
    Sub,
    X2,
    compile_expr,
    parse,
    simplify,
)
from ricciplane.geometry import DiagonalMetric, ricci
from ricciplane.numeric import SamplingConfig, sample_points, sampled_max_abs
from ricciplane.riccifield import (
    FrameField,
    closedness_defect,
    covariant_matrix,
    divergence,
    equation_guards,
    from_coordinates,
    residual_system,
    verify,
)

ZERO = Constant(0.0)
COSH_METRIC = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1)"))
COSH_FIELD = FrameField(parse("exp(-x1)"), parse("0"))
FLAT_EXP = DiagonalMetric(parse("exp(x1)"), parse("exp(x2)"))
CONSTANTS = DiagonalMetric(parse("2"), parse("3"))
ONES = FrameField(parse("1"), parse("1"))


def sampled_max(e, points):
    fn = compile_expr(e)
    return max(abs(fn(x1, x2)) for x1, x2 in points)


def test_covariant_matrix_constant_case():
    cov = covariant_matrix(CONSTANTS, ONES)
    assert all(entry == ZERO for entry in cov.values())


def test_covariant_matrix_zero_field():
    cov = covariant_matrix(COSH_METRIC, FrameField(parse("0"), parse("0")))
    assert all(entry == ZERO for entry in cov.values())


def test_covariant_matrix_cosh_entry():
    cov = covariant_matrix(COSH_METRIC, COSH_FIELD)
    points = sample_points(Domain(), SamplingConfig(samples=100))
    want = parse("-(cosh(x1)*exp(-x1))")
    assert sampled_max(Sub(cov[(1, 1)], want), points) <= 1e-12


@pytest.mark.parametrize(
    "metric, field",
    [
        (FLAT_EXP, ONES),  # e^x1 d1 + e^x2 d2 in frame components
        (COSH_METRIC, COSH_FIELD),
        (DiagonalMetric(parse("exp(x1)"), parse("2")), ONES),  # e^x1 d1 + k2 d2
    ],
)
def test_residual_system_paper_examples_vanish(metric, field):
    residuals = residual_system(metric, field)
    points = sample_points(Domain(), SamplingConfig(), equation_guards(metric, residuals))
    [(maxima, _)] = sampled_max_abs([residuals], points)
    assert max(maxima) <= 1e-9


def test_cosh_residual_is_probably_zero():
    from ricciplane.expr import is_probably_zero

    r1 = residual_system(COSH_METRIC, COSH_FIELD)[0]
    assert is_probably_zero(r1, Domain(), SamplingConfig()) is True


def test_verify_constant_metric_exact():
    report = verify(CONSTANTS, ONES, Domain(), SamplingConfig())
    assert report.verdict == "pass"
    assert report.max_abs == (0.0, 0.0, 0.0, 0.0)
    assert report.points_used == 200
    assert report.seed == 42


def test_verify_report_verdict_matches_tolerance():
    report = verify(COSH_METRIC, COSH_FIELD, Domain(), SamplingConfig())
    assert report.passed is (max(report.max_abs) <= report.tolerance)
    assert report.passed


def test_verify_rejects_unequal_scales_rotating_field():
    # metric (k1 e^x1, k2 e^x1) with the rotating coordinate field at
    # k1=1, k2=2: R4 = e^x1 (cos+sin)((k1/k2) x2) k1 (k2-k1) != 0
    m = DiagonalMetric(parse("exp(x1)"), parse("2*exp(x1)"))
    V = from_coordinates(
        m,
        parse("exp(x1)*(cos(0.5*x2) - sin(0.5*x2))"),
        parse("4*exp(x1)*(cos(0.5*x2) + sin(0.5*x2))"),
    )
    report = verify(m, V, Domain(), SamplingConfig())
    assert report.verdict == "fail"
    assert report.max_abs[3] >= 0.1


def test_verify_accepts_equal_scales_rotating_field():
    m = DiagonalMetric(parse("exp(x1)"), parse("exp(x1)"))
    V = from_coordinates(
        m,
        parse("exp(x1)*(cos(x2) - sin(x2))"),
        parse("exp(x1)*(cos(x2) + sin(x2))"),
    )
    assert verify(m, V, Domain(), SamplingConfig()).verdict == "pass"


def test_verify_zero_field_on_curved_metric_fails():
    report = verify(COSH_METRIC, FrameField(parse("0"), parse("0")), Domain(), SamplingConfig())
    assert report.verdict == "fail"
    # R1 = -rho, which reaches |rho(0)| = 1 territory on [-1,1]^2
    assert report.max_abs[0] >= 0.5


def test_verdict_equals_independent_covariant_comparison():
    # pass iff the four covariant entries match (rho, rho, 0, 0);
    # recompute both sides directly at the sampled points
    for metric, field in [
        (COSH_METRIC, COSH_FIELD),
        (COSH_METRIC, FrameField(parse("1"), parse("0"))),
    ]:
        report = verify(metric, field, Domain(), SamplingConfig())
        cov = covariant_matrix(metric, field)
        rho = ricci(metric).rho
        points = sample_points(Domain(), SamplingConfig(), equation_guards(metric, cov.values()))
        worst = 0.0
        for (i, j), entry in cov.items():
            target = rho if i == j else parse("0")
            worst = max(worst, sampled_max(simplify(Sub(entry, target)), points))
        assert (worst <= 1e-9) == report.passed


def test_residuals_match_literal_coordinate_system():
    # the four equations written directly in coordinate derivatives:
    #   E1(V1) - h12 V2 = rho            <-> R1
    #   E1(V1) + h21 V1 = E2(V2) + h12 V2  <-> R1 - R2
    #   E1(V2) = -h12 V1                 <-> R3
    #   E2(V1) = -h21 V2                 <-> R4
    from ricciplane.expr import Var, differentiate

    m = DiagonalMetric(parse("exp(0.3*x1)*(2 + sin(x2))"), parse("(2 + cos(x1))*exp(0.2*x2)"))
    V = FrameField(parse("sin(x1) + x2^2"), parse("cosh(x2)*x1"))
    f1, f2 = m.f1, m.f2
    h12 = f2 / f1 * differentiate(f1, Var.X2)
    h21 = f1 / f2 * differentiate(f2, Var.X1)
    e1 = lambda u: f1 * differentiate(u, Var.X1)
    e2 = lambda u: f2 * differentiate(u, Var.X2)
    rho = e1(h21) + e2(h12) - h21 * h21 - h12 * h12
    literal = (
        e1(V.V1) - h12 * V.V2 - rho,
        (e1(V.V1) + h21 * V.V1) - (e2(V.V2) + h12 * V.V2),
        e1(V.V2) + h12 * V.V1,
        e2(V.V1) + h21 * V.V2,
    )
    r1, r2, r3, r4 = residual_system(m, V)
    mine = (r1, simplify(Sub(r1, r2)), r3, r4)
    points = sample_points(Domain(), SamplingConfig(samples=100), equation_guards(m, literal))
    for lit, ours in zip(literal, mine):
        assert sampled_max(Sub(lit, ours), points) <= 1e-9


def test_from_coordinates_examples():
    V = from_coordinates(FLAT_EXP, parse("exp(x1)"), parse("exp(x2)"))
    assert V.V1 == Constant(1.0)
    assert V.V2 == Constant(1.0)
    V = from_coordinates(COSH_METRIC, parse("exp(-x1)*cosh(x1)"), parse("0"))
    assert V.V2 == ZERO
    points = sample_points(Domain(), SamplingConfig(samples=100))
    assert sampled_max(Sub(V.V1, parse("exp(-x1)")), points) <= 1e-12
    V = from_coordinates(CONSTANTS, parse("0"), parse("0"))
    assert V == FrameField(ZERO, ZERO)


def test_divergence_examples():
    assert divergence(CONSTANTS, ONES) == ZERO
    points = sample_points(Domain(), SamplingConfig(samples=100))
    div = divergence(COSH_METRIC, COSH_FIELD)
    want = parse("2*(cosh(x1)*sinh(x1) - cosh(x1)^2)")
    assert sampled_max(Sub(div, want), points) <= 1e-9
    # for a verified field, div(V) = r
    assert sampled_max(Sub(div, ricci(COSH_METRIC).r), points) <= 1e-9


def test_closedness_defect_examples():
    assert closedness_defect(CONSTANTS, FrameField(parse("0"), parse("0"))) == ZERO
    # non-closed field detected: V = (x2, 0) on a constant metric
    defect = closedness_defect(CONSTANTS, FrameField(X2, parse("0")))
    assert defect == Constant(-3.0)
    points = sample_points(Domain(), SamplingConfig(samples=100))
    assert sampled_max(closedness_defect(COSH_METRIC, COSH_FIELD), points) <= 1e-12


def test_average_of_solutions_is_a_solution():
    d, cfg = Domain(), SamplingConfig()
    e1 = FrameField(parse("1"), parse("0"))
    e2 = FrameField(parse("0"), parse("1"))
    assert verify(FLAT_EXP, e1, d, cfg).passed
    assert verify(FLAT_EXP, e2, d, cfg).passed
    average = FrameField(
        simplify(Constant(0.5) * (e1.V1 + e2.V1)),
        simplify(Constant(0.5) * (e1.V2 + e2.V2)),
    )
    assert verify(FLAT_EXP, average, d, cfg).passed


def test_difference_of_solutions_is_parallel():
    d, cfg = Domain(), SamplingConfig()
    e1 = FrameField(parse("1"), parse("0"))
    e2 = FrameField(parse("0"), parse("1"))
    diff = FrameField(simplify(e1.V1 - e2.V1), simplify(e1.V2 - e2.V2))
    cov = covariant_matrix(FLAT_EXP, diff)
    points = sample_points(d, cfg, equation_guards(FLAT_EXP, cov.values()))
    [(maxima, _)] = sampled_max_abs([list(cov.values())], points)
    assert max(maxima) <= 2e-9


def test_flat_solutions_are_parallel():
    d, cfg = Domain(), SamplingConfig()
    for field in (ONES, FrameField(parse("1"), parse("0"))):
        assert verify(FLAT_EXP, field, d, cfg).passed
        cov = covariant_matrix(FLAT_EXP, field)
        points = sample_points(d, cfg, equation_guards(FLAT_EXP, cov.values()))
        [(maxima, _)] = sampled_max_abs([list(cov.values())], points)
        assert max(maxima) <= 1e-9
