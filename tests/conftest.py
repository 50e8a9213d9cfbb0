"""Shared fixtures and generators for the suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from ricciplane.expr import (
    EVAL_ERRORS,
    Add,
    Apply,
    Constant,
    Div,
    Domain,
    Expr,
    Mul,
    Negate,
    Point,
    Pow,
    Sub,
    X1,
    X2,
    compile_expr,
    evaluate_with_scale,
)
from ricciplane.families import (
    Branch1,
    Branch2,
    ConstantComponents,
    ConstantMetric,
    F2_POOL,
    HypothesisError,
    construct,
)
from ricciplane.geometry import DiagonalMetric
from ricciplane.numeric import OVERSAMPLE_FACTOR, SamplingConfig
from ricciplane.riccifield import FrameField, from_coordinates

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

PASSING_CORPUS = [
    "ex01a_frame_field_e1.json",
    "ex01b_frame_field_e2.json",
    "ex02_exponential_metric.json",
    "ex03_cosh_metric.json",
    "ex04_rotating_equal_scales.json",
    "ex05_exp_with_constant.json",
    "ex06_constant_metric.json",
]
FAILING_CORPUS = ["ex04_rotating_unequal_scales.json"]


@pytest.fixture
def domain() -> Domain:
    return Domain()


@pytest.fixture
def cfg() -> SamplingConfig:
    return SamplingConfig()


def load_corpus_pair(name: str) -> tuple[DiagonalMetric, FrameField, Domain, SamplingConfig]:
    """Parse a corpus spec into library objects."""
    from ricciplane.expr import parse

    spec = json.loads((CORPUS / name).read_text())
    m = DiagonalMetric(parse(spec["metric"]["f1"]), parse(spec["metric"]["f2"]))
    field = spec["field"]
    v1, v2 = parse(field["V1"]), parse(field["V2"])
    if field.get("frame", "orthonormal") == "coordinate":
        V = from_coordinates(m, v1, v2)
    else:
        V = FrameField(v1, v2)
    dom = spec.get("domain", {})
    d = Domain(
        x1_range=tuple(dom.get("x1", (-1.0, 1.0))),
        x2_range=tuple(dom.get("x2", (-1.0, 1.0))),
        guard=dom.get("guard", 1e-6),
    )
    s = spec.get("sampling", {})
    cfg = SamplingConfig(
        samples=s.get("samples", 200),
        seed=s.get("seed", 42),
        tolerance=s.get("tolerance", 1e-9),
    )
    return m, V, d, cfg


# ---------------------------------------------------------------------------
# Random expression trees
# ---------------------------------------------------------------------------

_SMOOTH_FNS = ("exp", "sin", "cos", "sinh", "cosh", "tanh", "sech")


def random_smooth_tree(rng: random.Random, depth: int) -> Expr:
    """A random tree that stays smooth and evaluable on [-2, 2]^2.

    Denominators, log/sqrt arguments, and abs arguments are drawn from
    templates bounded away from zero; tan arguments stay inside the
    principal branch.  This keeps finite differences meaningful at
    almost every sampled point.
    """
    if depth <= 0:
        if rng.random() < 0.5:
            return Constant(round(rng.uniform(-2.0, 2.0), 3))
        return X1 if rng.random() < 0.5 else X2

    choice = rng.random()
    if choice < 0.18:
        return Add(random_smooth_tree(rng, depth - 1), random_smooth_tree(rng, depth - 1))
    if choice < 0.36:
        return Sub(random_smooth_tree(rng, depth - 1), random_smooth_tree(rng, depth - 1))
    if choice < 0.54:
        return Mul(random_smooth_tree(rng, depth - 1), random_smooth_tree(rng, depth - 1))
    if choice < 0.62:
        return Div(random_smooth_tree(rng, depth - 1), _safe_positive(rng, depth - 1))
    if choice < 0.68:
        return Pow(random_smooth_tree(rng, depth - 1), Constant(float(rng.randint(2, 3))))
    if choice < 0.74:
        return Negate(random_smooth_tree(rng, depth - 1))
    if choice < 0.80:
        fn = rng.choice(("log", "sqrt", "abs"))
        return Apply(fn, _safe_positive(rng, depth - 1))
    if choice < 0.84:
        return Apply("tan", Mul(Constant(0.3), Apply("sin", random_smooth_tree(rng, depth - 1))))
    return Apply(rng.choice(_SMOOTH_FNS), random_smooth_tree(rng, depth - 1))


def _safe_positive(rng: random.Random, depth: int) -> Expr:
    """An expression bounded below by 1 on the whole plane."""
    inner = random_smooth_tree(rng, max(0, depth - 1))
    return Add(Constant(2.0), Apply(rng.choice(("sin", "cos", "tanh")), inner))


def usable_point(e: Expr, rng: random.Random, scale_cap: float = 50.0, tries: int = 50):
    """A random point of [-2,2]^2 where `e` evaluates with all
    intermediate magnitudes below `scale_cap`, or None."""
    from ricciplane.expr import EVAL_ERRORS

    for _ in range(tries):
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            _, scale = evaluate_with_scale(e, p)
        except EVAL_ERRORS:
            continue
        if scale <= scale_cap:
            return p
    return None


# ---------------------------------------------------------------------------
# Family parameter draws (the fixed pool keeps the suites reproducible)
# ---------------------------------------------------------------------------

FAMILY_VARIANTS = ("constant_components", "branch1", "branch2", "constant_metric")


def nonzero_param(rng: random.Random) -> float:
    mag = rng.uniform(0.1, 2.0)
    return mag if rng.random() < 0.5 else -mag


def draw_family(variant: str, rng: random.Random):
    """One random (params, domain) draw for the given family variant."""
    names = sorted(F2_POOL)
    if variant == "constant_components":
        b1, _ = F2_POOL[rng.choice(names)]
        b2, _ = F2_POOL[rng.choice(names)]
        f1 = b1(X1, nonzero_param(rng))
        f2 = b2(X2, nonzero_param(rng))
        return ConstantComponents(f1, f2, rng.uniform(-2, 2), rng.uniform(-2, 2)), Domain()
    if variant == "branch1":
        builder, dom = F2_POOL[rng.choice(names)]
        return Branch1(builder(X1, nonzero_param(rng)), k=nonzero_param(rng), c=nonzero_param(rng)), dom
    if variant == "branch2":
        builder, dom = F2_POOL[rng.choice(names)]
        return (
            Branch2(builder(X1, nonzero_param(rng)), c=nonzero_param(rng), c1=rng.uniform(-2, 2), c2=rng.uniform(-2, 2)),
            dom,
        )
    if variant == "constant_metric":
        return (
            ConstantMetric(k1=nonzero_param(rng), k2=nonzero_param(rng), c1=rng.uniform(-2, 2), c2=rng.uniform(-2, 2)),
            Domain(),
        )
    raise ValueError(variant)


def draw_constructed(variant: str, count: int, seed: int, cfg: SamplingConfig):
    """`count` successfully constructed pairs of the variant.

    Draws violating a sample-checked hypothesis (e.g. an induced f1
    crossing zero) are rejected and redrawn; soundness is a claim about
    pairs the constructor accepts.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > count * 50:
            raise RuntimeError(f"too many rejected draws for {variant}")
        params, dom = draw_family(variant, rng)
        try:
            m, V = construct(params, dom, cfg)
        except HypothesisError:
            continue
        out.append((params, dom, m, V))
    return out


def uniform_stream_points(d, cfg, guards):
    """The guarded sample drawn the plain way: random.Random.uniform for
    x1 then x2, one compiled guard at a time."""
    rng = random.Random(cfg.seed)
    fns = [compile_expr(g) for g in guards]
    points = []
    for _ in range(cfg.samples * OVERSAMPLE_FACTOR):
        if len(points) == cfg.samples:
            break
        x1 = rng.uniform(*d.x1_range)
        x2 = rng.uniform(*d.x2_range)
        try:
            values = [f(x1, x2) for f in fns]
        except EVAL_ERRORS:
            continue
        if not any(abs(v) < d.guard for v in values):
            points.append((x1, x2))
    return points
