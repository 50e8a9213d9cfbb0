"""Consequence identities and the gradient/soliton case."""

from __future__ import annotations

import pytest

from ricciplane.expr import Constant, Domain, Sub, compile_expr, parse
from ricciplane.families import Branch2, construct
from ricciplane.geometry import DiagonalMetric, ricci
from ricciplane.identities import (
    PotentialFunction,
    check_curvature_identity,
    check_laplacian_scalar,
    check_norm_symmetry,
    check_ric_vv,
    check_scalar_divergence,
    check_steady_soliton,
    gradient_field,
    hessian,
    identity_verdicts,
    laplacian,
)
from ricciplane.numeric import SamplingConfig, _job_stream, covered_sweep, sample_points
from ricciplane.riccifield import FrameField, closedness_defect, verify

from conftest import FAILING_CORPUS, PASSING_CORPUS, draw_constructed, load_corpus_pair

D = Domain()
CFG = SamplingConfig(tolerance=1e-7)

FLAT_EXP = DiagonalMetric(parse("exp(x1)"), parse("exp(x2)"))
FLAT_POTENTIAL = PotentialFunction(parse("-exp(-x1) - exp(-x2)"))
COSH_METRIC = DiagonalMetric(parse("cosh(x1)"), parse("exp(x1)"))
COSH_FIELD = FrameField(parse("exp(-x1)"), parse("0"))
# E1(f) = e^-x1 requires d1 f = e^-x1 / cosh(x1) = 2 e^-2x1 / (1 + e^-2x1)
COSH_POTENTIAL = PotentialFunction(parse("-log(1 + exp(-2*x1))"))
ONES = FrameField(parse("1"), parse("1"))


def sampled_max(e, points):
    fn = compile_expr(e)
    return max(abs(fn(x1, x2)) for x1, x2 in points)


def test_check_ric_vv():
    assert check_ric_vv(FLAT_EXP, ONES, D, CFG) is True
    assert check_ric_vv(COSH_METRIC, COSH_FIELD, D, CFG) is True
    # deliberately broken field: not in the solution class
    assert check_ric_vv(COSH_METRIC, FrameField(parse("1"), parse("0")), D, CFG) is False


def test_check_scalar_divergence():
    assert check_scalar_divergence(FLAT_EXP, ONES, D, CFG) is True
    assert check_scalar_divergence(COSH_METRIC, COSH_FIELD, D, CFG) is True
    assert check_scalar_divergence(COSH_METRIC, FrameField(parse("1"), parse("0")), D, CFG) is False


def test_check_norm_symmetry():
    assert check_norm_symmetry(COSH_METRIC, COSH_FIELD, COSH_FIELD, D, CFG) is True
    constants = DiagonalMetric(parse("2"), parse("3"))
    assert check_norm_symmetry(constants, FrameField(parse("1"), parse("0")), FrameField(parse("0"), parse("1")), D, CFG) is True
    m, va = construct(Branch2(parse("exp(x1)"), c=1.0, c1=1.0, c2=0.0), D, CFG)
    _, vb = construct(Branch2(parse("exp(x1)"), c=1.0, c1=0.0, c2=1.0), D, CFG)
    assert check_norm_symmetry(m, va, vb, D, CFG) is True


def test_check_curvature_identity():
    assert check_curvature_identity(FLAT_EXP, ONES, D, CFG) is True
    assert check_curvature_identity(COSH_METRIC, COSH_FIELD, D, CFG) is True


def test_gradient_field_recovers_paper_example():
    V = gradient_field(FLAT_EXP, FLAT_POTENTIAL)
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(V.V1, Constant(1.0)), points) <= 1e-12
    assert sampled_max(Sub(V.V2, Constant(1.0)), points) <= 1e-12
    assert verify(FLAT_EXP, V, D, SamplingConfig()).passed


def test_gradient_field_trivial_cases():
    assert gradient_field(FLAT_EXP, PotentialFunction(parse("5"))) == FrameField(Constant(0.0), Constant(0.0))
    constants = DiagonalMetric(parse("2"), parse("3"))
    assert gradient_field(constants, PotentialFunction(parse("x1"))) == FrameField(Constant(2.0), Constant(0.0))


def test_hessian_flat_potential_vanishes():
    entries = hessian(FLAT_EXP, FLAT_POTENTIAL)
    points = sample_points(D, SamplingConfig(samples=100))
    for entry in entries.values():
        assert sampled_max(entry, points) <= 1e-12
    for entry in hessian(FLAT_EXP, PotentialFunction(parse("5"))).values():
        assert entry == Constant(0.0)


def test_hessian_cosh_potential_equals_ricci():
    entries = hessian(COSH_METRIC, COSH_POTENTIAL)
    rho = ricci(COSH_METRIC).rho
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(entries[(1, 1)], rho), points) <= 1e-9
    assert sampled_max(entries[(1, 2)], points) <= 1e-9
    assert sampled_max(entries[(2, 1)], points) <= 1e-9
    assert sampled_max(Sub(entries[(2, 2)], rho), points) <= 1e-9


def test_gradient_field_of_cosh_potential_is_the_cosh_field():
    V = gradient_field(COSH_METRIC, COSH_POTENTIAL)
    points = sample_points(D, SamplingConfig(samples=100))
    assert sampled_max(Sub(V.V1, parse("exp(-x1)")), points) <= 1e-12
    assert sampled_max(V.V2, points) == 0.0
    assert verify(COSH_METRIC, V, D, SamplingConfig()).passed


def test_steady_soliton_checks():
    assert check_steady_soliton(FLAT_EXP, FLAT_POTENTIAL, D, CFG) is True
    assert check_steady_soliton(COSH_METRIC, COSH_POTENTIAL, D, CFG) is True
    assert check_steady_soliton(COSH_METRIC, PotentialFunction(parse("x1*x2")), D, CFG) is False


def test_laplacian():
    points = sample_points(D, SamplingConfig(samples=100))
    flat_lap = laplacian(FLAT_EXP, FLAT_POTENTIAL)
    assert sampled_max(flat_lap, points) <= 1e-12
    assert laplacian(FLAT_EXP, PotentialFunction(parse("5"))) == Constant(0.0)
    cosh_lap = laplacian(COSH_METRIC, COSH_POTENTIAL)
    assert sampled_max(Sub(cosh_lap, ricci(COSH_METRIC).r), points) <= 1e-9
    assert check_laplacian_scalar(COSH_METRIC, COSH_POTENTIAL, D, SamplingConfig(tolerance=1e-6)) is True


def test_identity_suite_for_verified_pairs():
    pairs = [
        (FLAT_EXP, ONES),
        (COSH_METRIC, COSH_FIELD),
        (DiagonalMetric(parse("exp(x1)"), parse("2")), ONES),
    ]
    for m, V in pairs:
        assert verify(m, V, D, SamplingConfig()).passed
        assert check_ric_vv(m, V, D, CFG)
        assert check_scalar_divergence(m, V, D, CFG)
        assert check_curvature_identity(m, V, D, CFG)


def separate_verdicts(m, V, d, cfg, potential=None):
    """The identity verdicts one check at a time, in report order."""
    [(closed, _)] = covered_sweep([[closedness_defect(m, V)]], (), d, cfg, (m.f1, m.f2), "identity residuals")[0]
    verdicts = {
        "ric_vv": check_ric_vv(m, V, d, cfg),
        "scalar_divergence": check_scalar_divergence(m, V, d, cfg),
        "curvature_identity": check_curvature_identity(m, V, d, cfg),
        "closedness": closed[0] <= cfg.tolerance,
    }
    if potential is not None:
        verdicts["steady_soliton"] = check_steady_soliton(m, potential, d, cfg)
        verdicts["laplacian_scalar"] = check_laplacian_scalar(m, potential, d, cfg)
    return verdicts


def assert_same_verdicts(m, V, d, cfg, potential=None):
    expected = separate_verdicts(m, V, d, cfg, potential)
    got = identity_verdicts(m, V, d, cfg, potential)
    assert list(got.items()) == list(expected.items())
    with _job_stream():  # one shared point list, as in a CLI job
        assert list(identity_verdicts(m, V, d, cfg, potential).items()) == list(expected.items())
    return got


@pytest.mark.parametrize("name", PASSING_CORPUS + FAILING_CORPUS)
def test_identity_verdicts_match_the_checks_on_the_corpus(name):
    assert_same_verdicts(*load_corpus_pair(name))


def test_identity_verdicts_match_the_checks_with_a_potential():
    V = gradient_field(COSH_METRIC, COSH_POTENTIAL)
    got = assert_same_verdicts(COSH_METRIC, V, D, CFG, COSH_POTENTIAL)
    assert list(got) == [
        "ric_vv", "scalar_divergence", "curvature_identity", "closedness", "steady_soliton", "laplacian_scalar"
    ]
    wrong = PotentialFunction(parse("x1*x2"))
    got = assert_same_verdicts(COSH_METRIC, gradient_field(COSH_METRIC, wrong), D, CFG, wrong)
    assert not all(got.values())


def test_identity_verdicts_match_the_checks_on_a_failing_field():
    got = assert_same_verdicts(COSH_METRIC, FrameField(parse("1"), parse("0")), D, CFG)
    assert got["ric_vv"] is False and got["closedness"] is True


@pytest.mark.parametrize("variant", ["branch1", "branch2"])
def test_identity_verdicts_match_the_checks_on_family_outputs(variant):
    [(_, dom, m, V)] = draw_constructed(variant, 1, 20251018, CFG)
    assert_same_verdicts(m, V, dom, CFG)
