"""Shared fixtures, generators, and the reference evaluator and
differentiator for the suite."""

from __future__ import annotations

import json
import math
import operator
import random
from pathlib import Path

import pytest

from ricciplane.expr import (
    EVAL_ERRORS,
    FUNCTIONS,
    Add,
    Apply,
    Constant,
    Div,
    Domain,
    EvaluationError,
    Expr,
    Mul,
    Negate,
    Pow,
    Sub,
    Var,
    Variable,
    X1,
    X2,
    _Binary,
    _pow_value,
    compile_expr,
    evaluate_with_scale,
    kink_arguments,
    simplify,
    to_string,
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
from ricciplane.numeric import OVERSAMPLE_FACTOR, FdValidation, SamplingConfig, merge_guards, sample_points
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
def is_zero_constant(e: Expr) -> bool:
    """Whether `e` is a Constant of value 0.0, of either sign: nodes
    compare by identity, and Constant(-0.0) is not Constant(0.0)."""
    return isinstance(e, Constant) and e.value == 0.0


# Reference evaluator: a recursive tree walk, independent of the
# generated kernels that the package evaluates with
# ---------------------------------------------------------------------------

_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def evaluate(e: Expr, p: tuple[float, float]) -> float:
    """Evaluate `e` at the point p = (x1, x2).

    Deterministic: the same tree at the same point always produces the
    bit-identical float.  Raises EvaluationError naming the offending
    subexpression and the point when some node is undefined.
    """
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        return p[0] if e.var is Var.X1 else p[1]
    if isinstance(e, Negate):
        return -evaluate(e.arg, p)
    if isinstance(e, Apply):
        a = evaluate(e.arg, p)
        try:
            return FUNCTIONS[e.fn](a)
        except EVAL_ERRORS as err:
            raise EvaluationError(_undefined_message(str(err) or e.fn, e, p)) from None
    if not isinstance(e, _Binary):
        raise TypeError(f"not an expression node: {e!r}")
    a = evaluate(e.lhs, p)
    b = evaluate(e.rhs, p)
    if isinstance(e, Pow):
        try:
            return _pow_value(a, b)
        except EVAL_ERRORS as err:
            raise EvaluationError(_undefined_message(str(err), e, p)) from None
    if isinstance(e, Div) and b == 0.0:
        raise EvaluationError(_undefined_message("division by zero", e, p))
    return _OPERATORS[type(e)](a, b)


def _undefined_message(reason: str, node: Expr, p: tuple[float, float]) -> str:
    return f"{reason} in '{to_string(node)}' at (x1={p[0]!r}, x2={p[1]!r})"


def fd_partial(e: Expr, p: tuple[float, float], v: Var, h: float) -> float:
    """Central difference (e(p + h e_v) - e(p - h e_v)) / (2h), by the reference evaluator."""
    x1, x2 = p
    try:
        if v is Var.X1:
            hi, lo = evaluate(e, (x1 + h, x2)), evaluate(e, (x1 + -h, x2))
        else:
            hi, lo = evaluate(e, (x1, x2 + h)), evaluate(e, (x1, x2 + -h))
    except EvaluationError as err:
        raise EvaluationError(f"finite-difference stencil failed: {err}") from None
    return (hi - lo) / (2.0 * h)


# ---------------------------------------------------------------------------
# Reference differentiator: the derivative rules applied with the plain
# constructors, unsimplified, independent of the one-pass builder
# ---------------------------------------------------------------------------

_ONE, _TWO, _ZERO = Constant(1.0), Constant(2.0), Constant(0.0)

# The chain rule of each function: the derivative of e = fn(u), given u and its derivative du.
REFERENCE_CHAIN_RULES = {
    "exp": lambda e, u, du: Mul(e, du),
    "log": lambda e, u, du: Div(du, u),
    "sin": lambda e, u, du: Mul(Apply("cos", u), du),
    "cos": lambda e, u, du: Negate(Mul(Apply("sin", u), du)),
    "tan": lambda e, u, du: Mul(Add(_ONE, Pow(e, _TWO)), du),
    "sinh": lambda e, u, du: Mul(Apply("cosh", u), du),
    "cosh": lambda e, u, du: Mul(Apply("sinh", u), du),
    "tanh": lambda e, u, du: Mul(Sub(_ONE, Pow(e, _TWO)), du),
    "sech": lambda e, u, du: Negate(Mul(Mul(e, Apply("tanh", u)), du)),
    "sqrt": lambda e, u, du: Div(du, Mul(_TWO, e)),
    "abs": lambda e, u, du: Mul(Apply("sign", u), du),
    "sign": lambda e, u, du: Mul(Mul(_ZERO, e), du),
}


def reference_derivative(e: Expr, v: Var, memo: dict | None = None) -> Expr:
    """The exact partial derivative of `e` with respect to `v`, as the
    rules build it, unsimplified: `differentiate(e, v)` is its `simplify`.
    The derivative of abs(u) is sign(u)*u' and that of sign(u) is
    0*sign(u)*u', both an error where u vanishes.  `memo` keeps each
    node's derivative within one call, so a shared subtree is
    differentiated once."""
    memo = {} if memo is None else memo
    if e in memo:
        return memo[e]

    def d(node: Expr) -> Expr:
        return reference_derivative(node, v, memo)

    if isinstance(e, Constant):
        out = _ZERO
    elif isinstance(e, Variable):
        out = _ONE if e.var is v else _ZERO
    elif isinstance(e, Negate):
        out = Negate(d(e.arg))
    elif isinstance(e, (Add, Sub)):
        out = type(e)(d(e.lhs), d(e.rhs))
    elif isinstance(e, Mul):
        out = Add(Mul(d(e.lhs), e.rhs), Mul(e.lhs, d(e.rhs)))
    elif isinstance(e, Div):
        out = Div(Sub(Mul(d(e.num), e.den), Mul(e.num, d(e.den))), Pow(e.den, _TWO))
    elif isinstance(e, Pow) and isinstance(e.exponent, Constant):
        n = e.exponent.value
        out = _ZERO if n == 0.0 else d(e.base) if n == 1.0 else Mul(Mul(e.exponent, Pow(e.base, Constant(n - 1.0))), d(e.base))
    elif isinstance(e, Pow):
        # general u^w via u^w * (w' log u + w u'/u)
        out = Mul(e, Add(Mul(d(e.exponent), Apply("log", e.base)), Mul(e.exponent, Div(d(e.base), e.base))))
    elif isinstance(e, Apply):
        out = REFERENCE_CHAIN_RULES[e.fn](e, e.arg, d(e.arg))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[e] = out
    return out


# ---------------------------------------------------------------------------
# Reference finite-difference oracle: the per-point fold `fd_validate` ran
# over every point before it had a generated kernel, on the tree walker
# ---------------------------------------------------------------------------


def reference_fd_validate(exprs, d, cfg, guards=()) -> list[FdValidation]:
    """`fd_validate` of `exprs`, each sampled as the package samples it,
    its slopes the simplified `reference_derivative`s, folded point by
    point by `_reference_fd_sweep` over each point list."""
    built = []
    for e in exprs:
        points = sample_points(d, cfg, merge_guards(guards, [e]))
        slopes = tuple(simplify(reference_derivative(e, v)) for v in (Var.X1, Var.X2))
        built.append(((e, slopes, kink_arguments(e)), points))
    lists: dict[int, tuple[list, list[int]]] = {}
    for k, (_, points) in enumerate(built):
        lists.setdefault(id(points), (points, []))[1].append(k)
    results: list = [None] * len(built)
    for points, members in lists.values():
        for k, result in zip(members, _reference_fd_sweep([built[k][0] for k in members], points, cfg.fd_step)):
            results[k] = result
    return results


def _walked(exprs):
    """(x1, x2) -> the walker's value of each expression, None where it is undefined."""

    def values(x1, x2):
        row = []
        for e in exprs:
            try:
                row.append(evaluate(e, (x1, x2)))
            except EVAL_ERRORS:
                row.append(None)
        return row

    return values


def _reference_fd_sweep(built, points, h):
    n = len(built)
    values = _walked([e for e, _, _ in built])
    slopes = _walked([s[j] for j in (0, 1) for _, s, _ in built])
    kink_fns = {k: k for _, _, ks in built for k in ks}
    owned = [(i, ks) for i, (_, _, ks) in enumerate(built) if ks]
    two_h = 2.0 * h
    worst = [0.0] * n
    skipped = [0] * n  # each (point, variable) pair is skipped or used
    for x1, x2 in points:
        sym = slopes(x1, x2)
        # The middle points add 0.0 on the axis, so a -0.0 there reads as 0.0.
        stencils = (
            ((x1 + -h, x2), (x1 + 0.0, x2), (x1 + h, x2)),
            ((x1, x2 + -h), (x1, x2 + 0.0), (x1, x2 + h)),
        )
        for j, stencil in enumerate(stencils):
            lo, _, hi = stencil
            if not (math.isfinite(lo[j]) and math.isfinite(hi[j])):
                for i in range(n):
                    skipped[i] += 1
                continue
            straddling = ()
            if owned:
                straddles = {k: _straddles(fn, stencil) for k, fn in kink_fns.items()}
                straddling = {i for i, ks in owned if any(straddles[k] for k in ks)}
            for i, s, up, down in zip(range(n), sym[j * n : (j + 1) * n], values(*hi), values(*lo)):
                if s is None or up is None or down is None or i in straddling:
                    skipped[i] += 1
                    continue
                err = abs(s - (up - down) / two_h) / (1.0 + abs(s))
                if not err <= worst[i]:  # larger, or NaN
                    worst[i] = err if err == err else math.inf
    pairs = 2 * len(points)
    return [FdValidation(w, pairs - k, k) for w, k in zip(worst, skipped)]


def _straddles(kink, stencil) -> bool:
    """Whether the kink argument is undefined somewhere on the stencil
    or takes more than one of the signs +, 0, -."""
    signs = set()
    for q in stencil:
        try:
            val = evaluate(kink, q)
        except EVAL_ERRORS:
            return True
        signs.add(val > 0 if val != 0 else None)
    return len(signs) > 1


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
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
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
