"""Non-finite numbers in specs and in sampled values: a non-finite
constant compiles, a non-finite residual fails, and non-finite domain
or sampling values are spec errors."""

from __future__ import annotations

import json
import math

import pytest

from ricciplane import cli
from ricciplane.expr import (
    EVAL_ERRORS,
    Domain,
    Point,
    compile_expr,
    compile_many,
    denominators,
    evaluate,
    is_probably_zero,
    parse,
    walk,
)
from ricciplane.geometry import is_flat, ricci
from ricciplane.numeric import SamplingConfig, nowhere_zero, sample_points, sampled_max_abs, sampled_range

from conftest import CORPUS, FAILING_CORPUS, PASSING_CORPUS, load_corpus_pair

FLAT = {"f1": "1", "f2": "1"}


def run_cli(capsys, tmp_path, spec_text: str, *flags) -> tuple[int, str, str]:
    path = tmp_path / "job.json"
    path.write_text(spec_text, encoding="utf-8")
    code = cli.main(["verify", "--spec", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_non_finite_constant_compiles_like_evaluate():
    e = parse("1e400 + x1")
    assert compile_expr(e)(0.5, 0.0) == evaluate(e, Point(0.5, 0.0))


def test_non_finite_constant_spec_gives_a_report(tmp_path, capsys):
    spec = {"metric": FLAT, "field": {"frame": "orthonormal", "V1": "1e308*10*x1", "V2": "0"}}
    code, out, err = run_cli(capsys, tmp_path, json.dumps(spec))
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["residual_max"][0] == math.inf


def test_nan_residual_fails(tmp_path, capsys):
    # V1 equals x1, but x1^400 and x1^399*x1 overflow to inf on [10, 20]
    # and their difference is NaN at every point.
    spec = {
        "metric": FLAT,
        "field": {"frame": "orthonormal", "V1": "x1^400 - x1^399*x1 + x1", "V2": "0"},
        "domain": {"x1": [10, 20], "x2": [-1, 1]},
    }
    code, out, _ = run_cli(capsys, tmp_path, json.dumps(spec))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["residual_max"][0] == math.inf
    assert '"residual_max": [\n    Infinity,' in out


def test_nan_is_not_zero():
    assert is_probably_zero(parse("x1^400 - x1^399*x1"), Domain(x1_range=(10, 20))) is False
    maxima, used = sampled_max_abs([parse("x1^400 - x1^399*x1"), parse("x1")], [Point(10.5, 0.0)])
    assert (maxima, used) == ([math.inf, 10.5], 1)


def test_overflowing_subexpression_is_not_zero():
    # x1^400 overflows to inf and 1/inf is 0: the value 1.0 is finite,
    # but the scale is not, so no tolerance may absorb the value.
    assert not is_probably_zero(parse("1/x1^400 + 1"), Domain(x1_range=(10.0, 20.0)))


def exact_zero_reading(e, d, samples=200, seed=42, tol=1e-9):
    """The zero test's rule applied to every evaluable point, with no
    shortcut: every node finite and |e| <= tol * (1 + max |node|)."""
    fn = compile_many(list(walk(e)))
    rows = []
    for p in sample_points(d, SamplingConfig(samples=samples, seed=seed), denominators(e)):
        try:
            rows.append(fn(*p))
        except EVAL_ERRORS:
            continue
    assert len(rows) >= samples / 2
    return all(
        all(map(math.isfinite, row)) and abs(row[0]) <= tol * (1.0 + max(map(abs, row))) for row in rows
    )


@pytest.mark.parametrize(
    "text, lo, hi, zero",
    [
        # x1^400 is inf and 1/inf is 0: a non-finite node behind a finite value.
        ("1/x1^400", 10.0, 20.0, False),
        # Every node is finite, but their sum overflows.
        ("1e308*x1 - 1e308*x1", 1.0, 1.5, True),
        ("sin(x1)^2 + cos(x1)^2 - 1", -1.0, 1.0, True),
        ("x1*1e-6", -1.0, 1.0, False),
    ],
)
def test_zero_test_agrees_with_the_exact_reading(text, lo, hi, zero):
    e, d = parse(text), Domain(x1_range=(lo, hi))
    assert is_probably_zero(e, d) is zero
    assert exact_zero_reading(e, d) is zero


@pytest.mark.parametrize("name", PASSING_CORPUS + FAILING_CORPUS)
def test_flatness_agrees_with_the_exact_reading(name):
    m, _, d, cfg = load_corpus_pair(name)
    assert is_flat(m, d, cfg) is exact_zero_reading(ricci(m).rho, d, cfg.samples, cfg.seed, cfg.tolerance)


def test_flat_corpus_metrics_stay_flat():
    for name in PASSING_CORPUS + FAILING_CORPUS:
        m, _, d, cfg = load_corpus_pair(name)
        assert is_flat(m, d, cfg) is (name != "ex03_cosh_metric.json")


def test_infinite_domain_is_a_spec_error(tmp_path, capsys):
    # json.dumps cannot write 1e400, so the spec is written as text.
    text = (
        '{"metric": {"f1": "1", "f2": "1"}, "field": {"frame": "orthonormal", "V1": "1", "V2": "0"},'
        ' "domain": {"x1": [0, 1e400]}}'
    )
    code, out, err = run_cli(capsys, tmp_path, text)
    assert code == 2
    assert out == ""
    assert "spec error" in err


def test_nan_tolerance_flag_is_a_spec_error(capsys):
    code = cli.main(["verify", "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--tolerance", "nan"])
    assert code == 2
    assert "spec error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x1_range": (0.0, math.inf)},
        {"x2_range": (-math.inf, 0.0)},
        {"x1_range": (-1e308, 1e308)},  # the width overflows
        {"guard": math.inf},
        {"guard": math.nan},
    ],
)
def test_domain_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError):
        Domain(**kwargs)


@pytest.mark.parametrize("field", ["tolerance", "fd_step", "fd_tolerance"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_sampling_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError):
        SamplingConfig(**{field: value})


# V1 equals x1, but x1^400 and x1^399*x1 overflow to inf on [10, 20], so
# the symbolic R1 and its central difference are NaN at every point.
NAN_PASS_SPEC = {
    "metric": FLAT,
    "field": {"frame": "orthonormal", "V1": "x1^400 - x1^399*x1 + x1", "V2": "0"},
    "domain": {"x1": [10, 20], "x2": [-1, 1]},
}


def test_oracle_reads_nan_deviation_as_infinite(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(NAN_PASS_SPEC), encoding="utf-8")
    code = cli.main(["oracle", "--spec", str(path), "--samples", "50"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["fd"]["R1"]["max_rel_error"] == math.inf
    assert report["fd"]["R1"]["points_used"] > 0


def test_curvature_range_with_nan_values_is_unbounded(tmp_path, capsys):
    # f2 equals 1, but evaluates to NaN at every point of the domain.
    spec = {
        "metric": {"f1": "1", "f2": "1 + x1^400 - x1^399*x1"},
        "domain": {"x1": [10, 20], "x2": [-1, 1]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = cli.main(["curvature", "--spec", str(path), "--samples", "50"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out)
    assert report["rho_range"] == [-math.inf, math.inf]
    assert report["flat"] is False


def test_sampled_range_nan_at_some_points():
    e = parse("1 + x1^400 - x1^399*x1")
    # x1 = 1 evaluates to 1; x1 = 15 to NaN.
    assert sampled_range(e, [Point(1.0, 0.0)]) == (1.0, 1.0)
    assert sampled_range(e, [Point(1.0, 0.0), Point(15.0, 0.0)]) == (-math.inf, math.inf)


# f1 equals 1, but evaluates to NaN at every point of the domain.
NAN_METRIC_SPEC = {
    "metric": {"f1": "x1^400 - x1^399*x1 + 1", "f2": "1"},
    "field": {"frame": "orthonormal", "V1": "0", "V2": "0"},
    "domain": {"x1": [10, 20], "x2": [-1, 1]},
}


@pytest.mark.parametrize("command", ["verify", "identities"])
def test_nan_metric_is_a_singular_domain(tmp_path, capsys, command):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(NAN_METRIC_SPEC), encoding="utf-8")
    code = cli.main([command, "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SINGULAR_DOMAIN
    assert captured.out == ""
    assert "metric component f1" in captured.err
    assert "non-finite value nan at (x1=" in captured.err


@pytest.mark.parametrize(
    "text, shown",
    [("x1^400 - x1^399*x1 + 1", "nan"), ("x1^400", "inf"), ("-x1^400", "-inf")],
)
def test_nowhere_zero_rejects_non_finite_values(text, shown):
    ok, reason = nowhere_zero(parse(text), Domain(x1_range=(10, 20)), SamplingConfig(samples=20))
    assert ok is False
    assert reason.startswith(f"non-finite value {shown} at (x1=")


def test_nan_family_component_violates_its_hypothesis(tmp_path, capsys):
    spec = {
        "family": {"kind": "branch1", "f2": "x1^400 - x1^399*x1 + 1", "k": 1, "c": 1},
        "domain": {"x1": [10, 20], "x2": [-1, 1]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = cli.main(["construct", "--spec", str(path), "--emit-spec", str(tmp_path / "derived.json")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_HYPOTHESIS
    assert "f2 nowhere zero on the domain (non-finite value nan at (x1=" in captured.err
