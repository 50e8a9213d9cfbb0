"""Family constructors: every accepted parameter draw must verify."""

from __future__ import annotations

import math
import random

import pytest

from ricciplane.expr import Constant, Domain, Sub, compile_expr, parse
from ricciplane.families import (
    Branch1,
    Branch2,
    ConstantComponents,
    ConstantMetric,
    HypothesisError,
    admissibility,
    construct,
    remark_metric,
)
from ricciplane.geometry import DiagonalMetric, is_flat, ricci
from ricciplane.numeric import SamplingConfig, sample_points
from ricciplane.riccifield import covariant_matrix, equation_guards, verify

from conftest import FAMILY_VARIANTS, draw_constructed, is_zero_constant

D = Domain()
CFG = SamplingConfig()


def sampled_max(e, points):
    fn = compile_expr(e)
    return max(abs(fn(x1, x2)) for x1, x2 in points)


def test_branch1_reconstructs_cosh_example():
    m, V = construct(Branch1(f2=parse("exp(x1)"), k=1.0, c=1.0), D, CFG)
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(m.f1, parse("cosh(x1)")), points) <= 1e-12
    assert m.f2 == parse("exp(x1)")
    assert sampled_max(Sub(V.V1, parse("exp(-x1)")), points) <= 1e-12
    assert V.V2 == Constant(0.0)
    assert verify(m, V, D, CFG).passed


def test_constant_components_reconstructs_exponential_example():
    m, V = construct(ConstantComponents(parse("exp(x1)"), parse("exp(x2)"), 1.0, 1.0), D, CFG)
    assert (m.f1, m.f2) == (parse("exp(x1)"), parse("exp(x2)"))
    assert (V.V1, V.V2) == (Constant(1.0), Constant(1.0))
    assert verify(m, V, D, CFG).passed


def test_branch2_exponential_example():
    m, V = construct(Branch2(f2=parse("exp(x1)"), c=1.0, c1=1.0, c2=1.0), D, CFG)
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(m.f1, parse("exp(x1)")), points) <= 1e-12
    assert sampled_max(Sub(V.V1, parse("cos(x2) - sin(x2)")), points) <= 1e-12
    assert sampled_max(Sub(V.V2, parse("cos(x2) + sin(x2)")), points) <= 1e-12
    assert verify(m, V, D, CFG).passed


def test_branch2_negative_constant_resolves_sign():
    # sign(c) for c < 0 folds to -1 at construction; the rotation runs
    # with frequency |c|
    m, V = construct(Branch2(f2=parse("exp(x1)"), c=-1.5, c1=0.5, c2=-0.25), D, CFG)
    points = sample_points(D, SamplingConfig(samples=50))
    want = parse("-(-0.25*cos(1.5*x2) - 0.5*sin(1.5*x2))")
    assert sampled_max(Sub(V.V1, want), points) <= 1e-12
    assert verify(m, V, D, CFG).passed


def test_branch1_proof_only_constant_case():
    # k = 0 goes through the f1 = c/(2 f2') sub-case kept from the proof
    m, V = construct(Branch1(f2=parse("exp(x1)"), k=0.0, c=1.0), D, CFG)
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(m.f1, parse("exp(-x1)/2")), points) <= 1e-12
    assert verify(m, V, D, CFG).passed


def test_construct_hypothesis_failures():
    with pytest.raises(HypothesisError, match="f2 nowhere zero"):
        construct(Branch1(f2=parse("sin(x1)"), k=1.0, c=1.0), D, CFG)
    with pytest.raises(HypothesisError, match="c != 0"):
        construct(Branch1(f2=parse("exp(x1)"), k=1.0, c=0.0), D, CFG)
    with pytest.raises(HypothesisError, match="induced f1"):
        # f1 = (e^2x1 - 1)/(2 e^x1) = sinh(x1) crosses zero at x1 = 0
        construct(Branch1(f2=parse("exp(x1)"), k=1.0, c=-1.0), D, CFG)
    with pytest.raises(HypothesisError, match="depends on x1 only"):
        construct(Branch1(f2=parse("exp(x2)"), k=1.0, c=1.0), D, CFG)
    with pytest.raises(HypothesisError, match="f1 depends on x1 only"):
        construct(ConstantComponents(parse("exp(x2)"), parse("exp(x2)"), 1.0, 1.0), D, CFG)
    with pytest.raises(HypothesisError, match="k1 != 0"):
        construct(ConstantMetric(k1=0.0, k2=1.0, c1=1.0, c2=1.0), D, CFG)


def test_tangential_derivative_zero_is_invisible_to_sampling():
    # f2' = 3 x1^2 touches zero at x1 = 0 without a sign change, which a
    # sample check cannot witness: construction on the full square is
    # accepted even though the induced f1 has a pole there.  On a domain
    # honoring the hypothesis the same parameters verify cleanly.
    m, V = construct(Branch1(f2=parse("x1^3 + 5"), k=1.0, c=1.0), D, CFG)
    assert m is not None
    off_axis = Domain(x1_range=(0.25, 1.25))
    m, V = construct(Branch1(f2=parse("x1^3 + 5"), k=1.0, c=1.0), off_axis, CFG)
    assert verify(m, V, off_axis, CFG).passed


def test_remark_metric_families():
    m = remark_metric("cosh", k=1.0, a=1.0, c=-1.0, d=D, cfg=CFG)
    assert m.f1 == parse("cosh(x1)")
    assert m.f2 == parse("exp(x1)")
    m = remark_metric("exp", k=1.0, a=1.0, c=1.0, d=D, cfg=CFG)
    assert m.f1 == parse("exp(x1)") == m.f2
    ok, value = admissibility("branch2", m, D, CFG)
    assert ok and abs(value - 1.0) <= 1e-12


def test_remark_sinh_needs_a_domain_avoiding_zero():
    off_axis = Domain(x1_range=(0.5, 2.0))
    m = remark_metric("sinh", k=1.0, a=1.0, c=1.0, d=off_axis, cfg=CFG)
    assert m.f1 == parse("sinh(x1)")
    with pytest.raises(HypothesisError, match="f1 nowhere zero"):
        remark_metric("sinh", k=1.0, a=1.0, c=1.0, d=D, cfg=CFG)


def test_admissibility_branch1_cosh_metric():
    m = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1)"))
    ok, value = admissibility("branch1", m, D, CFG)
    assert ok is True
    assert abs(value - (-1.0)) <= 1e-9


def test_admissibility_requires_f2_of_x1():
    m = DiagonalMetric(parse("exp(x1)"), parse("exp(x2)"))
    with pytest.raises(HypothesisError, match="f2 depends on x1 only"):
        admissibility("branch2", m, D, CFG)


def test_remark_cosh_satisfies_branch1_condition_with_value_c():
    rng = random.Random(7)
    for _ in range(5):
        k = rng.choice([-1, 1]) * rng.uniform(0.2, 2)
        a = rng.choice([-1, 1]) * rng.uniform(0.2, 2)
        c = rng.choice([-1, 1]) * rng.uniform(0.2, 2)
        m = remark_metric("cosh", k=k, a=a, c=c, d=D, cfg=CFG)
        ok, value = admissibility("branch1", m, D, CFG)
        assert ok is True
        assert abs(value - c) <= 1e-9 * (1 + abs(c))


def test_branch1_metric_satisfies_condition_minus_c():
    # the constructed f1 obeys f1'f2 - 2 f1 f2' + f1 f2 f2''/f2' = -c
    for params, dom, m, _ in draw_constructed("branch1", 10, seed=5, cfg=CFG):
        ok, value = admissibility("branch1", m, dom, CFG)
        assert ok is True
        assert abs(value - (-params.c)) <= 1e-8 * (1 + abs(params.c))


@pytest.mark.parametrize("variant", FAMILY_VARIANTS)
def test_family_soundness(variant):
    # reduced draw count here; the acceptance suite runs the full 100
    for _, dom, m, V in draw_constructed(variant, 25, seed=11, cfg=CFG):
        report = verify(m, V, dom, CFG)
        assert report.passed, (variant, report.max_abs)
        assert max(report.max_abs) <= 1e-8


def test_branch2_outputs_are_flat():
    for _, dom, m, _ in draw_constructed("branch2", 15, seed=3, cfg=CFG):
        rho = ricci(m).rho
        points = sample_points(dom, CFG, equation_guards(m, [rho]))
        assert sampled_max(rho, points) <= 1e-9


def test_constant_metric_outputs_are_flat_and_parallel():
    for _, dom, m, V in draw_constructed("constant_metric", 10, seed=9, cfg=CFG):
        assert is_flat(m, dom, CFG)
        for entry in covariant_matrix(m, V).values():
            assert is_zero_constant(entry)


def test_admissibility_nan_condition_is_not_constant():
    # The branch2 condition is exactly 1 where x1^400 is finite
    # (x1 < 5.9) and NaN (inf - inf) beyond.
    m = DiagonalMetric(parse("exp(x1)*(x1^400 - x1^399*x1 + 1)"), parse("exp(x1)"))
    ok, value = admissibility("branch2", m, Domain(x1_range=(0.0, 10.0)), CFG)
    assert ok is False and math.isnan(value)
    ok, value = admissibility("branch2", m, Domain(x1_range=(0.0, 5.0)), CFG)
    assert ok is True and value == 1.0


def test_admissibility_infinite_condition_is_not_constant():
    # The condition is 1 up to 2e-12 where exp(700*x1)^2 is finite
    # (x1 < 0.507) and inf beyond; spread inf <= tolerance*(1 + inf) held.
    m = DiagonalMetric(parse("exp(x1)*(exp(700*x1)*exp(700*x1)*1e-320 + 1)"), parse("exp(x1)"))
    ok, value = admissibility("branch2", m, Domain(x1_range=(0.0, 1.0)), CFG)
    assert ok is False and value == math.inf
    ok, value = admissibility("branch2", m, Domain(x1_range=(0.0, 0.5)), CFG)
    assert ok is True and abs(value - 1.0) <= 1e-9
