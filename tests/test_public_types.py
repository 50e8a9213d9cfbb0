"""The value types' contract: repr, equality and hashing, immutability,
keyword construction with defaults, the construction checks, and the
derived spec path that `construct` echoes."""

from __future__ import annotations

import json
import math
import pickle

import pytest

from ricciplane import cli
from ricciplane.expr import ZERO, X1, X2, Constant, Domain, _Token, parse
from ricciplane.families import Branch1, Branch2, ConstantComponents, ConstantMetric
from ricciplane.geometry import CurvatureData, DiagonalMetric
from ricciplane.identities import PotentialFunction
from ricciplane.numeric import MAX_SAMPLES, FdValidation, SamplingConfig
from ricciplane.riccifield import FrameField, ResidualReport

_X1 = "Variable(var=<Var.X1: 'x1'>)"
_X2 = "Variable(var=<Var.X2: 'x2'>)"

# (a builder of one instance, its repr); each builder gives an equal
# instance on every call, the expressions being interned.
CASES = [
    (lambda: Domain(), "Domain(x1_range=(-1.0, 1.0), x2_range=(-1.0, 1.0), guard=1e-06)"),
    (lambda: Domain((0.25, 1.25), (-2.0, 3.0), 0.001), "Domain(x1_range=(0.25, 1.25), x2_range=(-2.0, 3.0), guard=0.001)"),
    (lambda: _Token("number", "2.5", 3), "_Token(kind='number', text='2.5', position=3)"),
    (
        lambda: SamplingConfig(),
        "SamplingConfig(samples=200, seed=42, tolerance=1e-09, fd_step=1e-05, fd_tolerance=1e-05)",
    ),
    (lambda: FdValidation(0.5, 3, 1), "FdValidation(max_rel_error=0.5, points_used=3, points_skipped=1)"),
    (
        lambda: DiagonalMetric(parse("cosh(x1)"), X2),
        f"DiagonalMetric(f1=Apply(fn='cosh', arg={_X1}), f2={_X2})",
    ),
    (
        lambda: CurvatureData(X1, X2, ZERO, Constant(2.0)),
        f"CurvatureData(h12={_X1}, h21={_X2}, rho=Constant(value=0.0), r=Constant(value=2.0))",
    ),
    (lambda: FrameField(X1, ZERO), f"FrameField(V1={_X1}, V2=Constant(value=0.0))"),
    (
        lambda: ResidualReport((X1, X2, ZERO, ZERO), (0.0, 1.0, 2.0, 3.0), "pass", 200, 42, 1e-9, ((0.0, 1.0),)),
        f"ResidualReport(residuals=({_X1}, {_X2}, Constant(value=0.0), Constant(value=0.0)), "
        "max_abs=(0.0, 1.0, 2.0, 3.0), verdict='pass', points_used=200, seed=42, tolerance=1e-09, "
        "curvature_ranges=((0.0, 1.0),))",
    ),
    (lambda: PotentialFunction(X1), f"PotentialFunction(f={_X1})"),
    (lambda: ConstantComponents(X1, X2, 1.0, -2.0), f"ConstantComponents(f1={_X1}, f2={_X2}, c1=1.0, c2=-2.0)"),
    (lambda: Branch1(parse("exp(x1)"), 1.0, 0.5), f"Branch1(f2=Apply(fn='exp', arg={_X1}), k=1.0, c=0.5)"),
    (lambda: Branch2(X1, 1.2, 0.4, -1.1), f"Branch2(f2={_X1}, c=1.2, c1=0.4, c2=-1.1)"),
    (lambda: ConstantMetric(2.0, 3.0, 1.0, 1.0), "ConstantMetric(k1=2.0, k2=3.0, c1=1.0, c2=1.0)"),
]
IDS = [text.partition("(")[0] + str(k) for k, (_, text) in enumerate(CASES)]

# The field names of each class, in order.
FIELDS = {
    Domain: ("x1_range", "x2_range", "guard"),
    _Token: ("kind", "text", "position"),
    SamplingConfig: ("samples", "seed", "tolerance", "fd_step", "fd_tolerance"),
    FdValidation: ("max_rel_error", "points_used", "points_skipped"),
    DiagonalMetric: ("f1", "f2"),
    CurvatureData: ("h12", "h21", "rho", "r"),
    FrameField: ("V1", "V2"),
    ResidualReport: ("residuals", "max_abs", "verdict", "points_used", "seed", "tolerance", "curvature_ranges"),
    PotentialFunction: ("f",),
    ConstantComponents: ("f1", "f2", "c1", "c2"),
    Branch1: ("f2", "k", "c"),
    Branch2: ("f2", "c", "c1", "c2"),
    ConstantMetric: ("k1", "k2", "c1", "c2"),
}


def test_every_class_is_pinned():
    assert {type(build()) for build, _ in CASES} == set(FIELDS)


@pytest.mark.parametrize(("build", "text"), CASES, ids=IDS)
def test_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize(("build", "text"), CASES, ids=IDS)
def test_equal_instances_are_equal_and_hash_equal(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize(("build", "text"), CASES, ids=IDS)
def test_fields_cannot_be_assigned(build, text):
    obj = build()
    for name in FIELDS[type(obj)]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        assert getattr(obj, name) is before
    assert obj == build()


@pytest.mark.parametrize(("build", "text"), CASES, ids=IDS)
def test_pickle_round_trip(build, text):
    obj = build()
    loaded = pickle.loads(pickle.dumps(obj))
    assert type(loaded) is type(obj) and loaded == obj and repr(loaded) == text


def test_keyword_construction_with_defaults():
    assert Domain() == Domain(x1_range=(-1.0, 1.0), x2_range=(-1.0, 1.0), guard=1e-6)
    d = Domain(guard=0.5)
    assert (d.x1_range, d.x2_range, d.guard) == ((-1.0, 1.0), (-1.0, 1.0), 0.5)
    assert Domain((0.0, 2.0)) == Domain(x1_range=(0.0, 2.0))
    cfg = SamplingConfig()
    assert (cfg.samples, cfg.seed, cfg.tolerance, cfg.fd_step, cfg.fd_tolerance) == (200, 42, 1e-9, 1e-5, 1e-5)
    cfg = SamplingConfig(seed=7, fd_tolerance=1e-3)
    assert (cfg.samples, cfg.seed, cfg.tolerance, cfg.fd_step, cfg.fd_tolerance) == (200, 7, 1e-9, 1e-5, 1e-3)
    assert SamplingConfig(100, 1) == SamplingConfig(samples=100, seed=1)
    assert Branch1(f2=X1, k=1.0, c=2.0) == Branch1(X1, 1.0, 2.0)
    assert FrameField(V2=X2, V1=X1) == FrameField(X1, X2)


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"x1_range": (1.0, 1.0)}, "empty coordinate range [1.0, 1.0]"),
        ({"x2_range": (2.0, -1.0)}, "empty coordinate range [2.0, -1.0]"),
        ({"x1_range": (math.nan, 1.0)}, "empty coordinate range [nan, 1.0]"),
        ({"x1_range": (-1e308, 1e308)}, "coordinate range [-1e+308, 1e+308] must be finite"),
        ({"guard": 0.0}, "guard must be positive and finite"),
        ({"guard": math.inf}, "guard must be positive and finite"),
        ({"guard": math.nan}, "guard must be positive and finite"),
    ],
)
def test_domain_checks(kwargs, message):
    with pytest.raises(ValueError) as info:
        Domain(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"samples": 0}, "samples must be >= 1"),
        ({"samples": MAX_SAMPLES + 1}, f"samples must be <= {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"),
        ({"tolerance": 0.0}, "step and tolerances must be positive and finite"),
        ({"fd_step": math.inf}, "step and tolerances must be positive and finite"),
        ({"fd_tolerance": math.nan}, "step and tolerances must be positive and finite"),
    ],
)
def test_sampling_config_checks(kwargs, message):
    with pytest.raises(ValueError) as info:
        SamplingConfig(**kwargs)
    assert str(info.value) == message


def test_construct_echoes_the_default_derived_path_normalised(tmp_path, monkeypatch, capsys):
    """Without --emit-spec the derived spec goes next to the spec, and
    the report names that path as pathlib spells it: no "./", no "//"."""
    (tmp_path / "specs").mkdir()
    body = {"family": {"kind": "constant_metric", "k1": 2, "k2": 3, "c1": 1, "c2": 1}}
    (tmp_path / "specs" / "job.json").write_text(json.dumps(body), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--spec", "./specs//job.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["derived_spec_path"] == "specs/job.derived.json"
    assert (tmp_path / "specs" / "job.derived.json").exists()
