"""Constructors for the proved metric/field families.

Each constructor emits a (DiagonalMetric, FrameField) pair that the
verifier must accept on the supplied working domain.  Hypotheses from
the corresponding statements (nonzero constants, f2' nowhere zero, the
induced f1 nowhere zero) are sample-checked on that domain; domains for
families with singular points are always user-supplied, never shrunk
automatically.
"""

from __future__ import annotations

import collections
import math

from .expr import (
    Add,
    Apply,
    Constant,
    Div,
    Domain,
    Expr,
    Mul,
    Pow,
    Sub,
    Var,
    differentiate,
    is_probably_zero,
    simplify,
    variables_of,
    X1,
    X2,
)
from .geometry import DiagonalMetric
from .numeric import DomainTooSingularError, SamplingConfig, _enough, _one_by_one, first_zero_failure, merge_guards, sample_points
from .riccifield import FrameField


class HypothesisError(ValueError):
    """A family hypothesis fails on the working domain."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis violated: {hypothesis}" + (f" ({detail})" if detail else ""))


class ConstantComponents(collections.namedtuple("ConstantComponents", "f1 f2 c1 c2")):
    """f1 = f1(x1), f2 = f2(x2); every field with constant frame
    components is a solution, and nothing else is."""

    __slots__ = ()


class Branch1(collections.namedtuple("Branch1", "f2 k c")):
    """f2 = f2(x1) with f2' nowhere zero; the metric is completed by
    f1 = (k f2^2 + c) / (2 f2') and the field is (c/f2, 0).

    k = 0 is accepted as the constant sub-case f1 = c/(2 f2') that the
    existence proof derives even though the classification statement
    restricts to k != 0; callers may flag it as proof-only.
    """

    __slots__ = ()


class Branch2(collections.namedtuple("Branch2", "f2 c c1 c2")):
    """f2 = f2(x1) with f2' nowhere zero; f1 = c f2^2 / f2' and the
    field rotates in x2 with frequency |c|."""

    __slots__ = ()


class ConstantMetric(collections.namedtuple("ConstantMetric", "k1 k2 c1 c2")):
    """f1 = k1, f2 = k2 constants; solutions are the constant fields."""

    __slots__ = ()


FamilyParams = ConstantComponents | Branch1 | Branch2 | ConstantMetric


def _require_nonzero(name: str, value: float) -> None:
    if value == 0.0:
        raise HypothesisError(f"{name} != 0")


def _require_depends_only_on(name: str, e: Expr, var: Var) -> None:
    extra = variables_of(e) - {var}
    if extra:
        raise HypothesisError(f"{name} depends on {var.value} only", f"found {sorted(v.value for v in extra)}")


def _check_nowhere_zero(named: list[tuple[str, Expr]], d: Domain, cfg: SamplingConfig) -> None:
    """Sample-check that each named expression is nowhere zero on `d`; the
    first failure, in order, raises (`first_zero_failure`)."""
    failure = first_zero_failure(named, d, cfg)
    if failure is not None:
        raise HypothesisError(f"{failure[0]} nowhere zero on the domain", failure[2])


def construct(
    p: FamilyParams,
    d: Domain,
    cfg: SamplingConfig,
) -> tuple[DiagonalMetric, FrameField]:
    """Build the metric/field pair of the family, sample-checking the
    hypotheses on `d`.  Raises HypothesisError naming the first failed one."""
    if isinstance(p, ConstantComponents):
        _require_depends_only_on("f1", p.f1, Var.X1)
        _require_depends_only_on("f2", p.f2, Var.X2)
        metric = DiagonalMetric(f1=simplify(p.f1), f2=simplify(p.f2))
        _check_nowhere_zero([("f1", metric.f1), ("f2", metric.f2)], d, cfg)
        return metric, FrameField(Constant(p.c1), Constant(p.c2))

    if isinstance(p, (Branch1, Branch2)):
        _require_nonzero("c", p.c)
        _require_depends_only_on("f2", p.f2, Var.X1)
        f2 = simplify(p.f2)
        f2p = differentiate(f2, Var.X1)
        if isinstance(p, Branch1):
            f1 = Div(Add(Mul(Constant(p.k), Pow(f2, Constant(2.0))), Constant(p.c)), Mul(Constant(2.0), f2p))
        else:
            f1 = Div(Mul(Constant(p.c), Pow(f2, Constant(2.0))), f2p)
        f1 = simplify(f1)
        _check_nowhere_zero([("f2", f2), ("f2'", f2p), ("induced f1", f1)], d, cfg)
        if isinstance(p, Branch1):
            return DiagonalMetric(f1=f1, f2=f2), FrameField(V1=simplify(Div(Constant(p.c), f2)), V2=Constant(0.0))
        # sign(c) resolves to a constant now; symbolic sign of a variable
        # expression never enters a family field.
        sgn = math.copysign(1.0, p.c)
        phase = Mul(Constant(abs(p.c)), X2)
        v1 = Mul(
            Constant(sgn),
            Sub(Mul(Constant(p.c2), Apply("cos", phase)), Mul(Constant(p.c1), Apply("sin", phase))),
        )
        v2 = Add(Mul(Constant(p.c1), Apply("cos", phase)), Mul(Constant(p.c2), Apply("sin", phase)))
        return DiagonalMetric(f1=f1, f2=f2), FrameField(simplify(v1), simplify(v2))

    if isinstance(p, ConstantMetric):
        _require_nonzero("k1", p.k1)
        _require_nonzero("k2", p.k2)
        metric = DiagonalMetric(f1=Constant(p.k1), f2=Constant(p.k2))
        return metric, FrameField(Constant(p.c1), Constant(p.c2))

    raise TypeError(f"not a family parameter record: {p!r}")


def remark_metric(
    kind: str,
    k: float,
    a: float,
    c: float,
    d: Domain,
    cfg: SamplingConfig,
) -> DiagonalMetric:
    """The remarked nonconstant metric families with f2 = k e^(a x1).

    kind "cosh": f1 = -(c/(k a)) cosh(a x1)   (branch-1 condition = c)
    kind "sinh": f1 =  (c/(k a)) sinh(a x1)   (branch-1 condition = c;
        f1 vanishes at x1 = 0, so the domain must exclude it)
    kind "exp":  f1 =  (c k / a) e^(a x1)     (branch-2 condition = c)
    """
    for name, value in (("k", k), ("a", a), ("c", c)):
        _require_nonzero(name, value)
    ax1 = Mul(Constant(a), X1)
    f2 = simplify(Mul(Constant(k), Apply("exp", ax1)))
    if kind == "cosh":
        f1 = Mul(Constant(-c / (k * a)), Apply("cosh", ax1))
    elif kind == "sinh":
        f1 = Mul(Constant(c / (k * a)), Apply("sinh", ax1))
    elif kind == "exp":
        f1 = Mul(Constant(c * k / a), Apply("exp", ax1))
    else:
        raise ValueError(f"unknown remark family kind {kind!r}")
    f1 = simplify(f1)
    _check_nowhere_zero([("f1", f1)], d, cfg)
    return DiagonalMetric(f1=f1, f2=f2)


def admissibility(
    kind: str,
    m: DiagonalMetric,
    d: Domain,
    cfg: SamplingConfig,
) -> tuple[bool, float]:
    """Whether the metric satisfies the branch condition with a constant
    value on `d`; returns (is sample-constant, mean value over samples).

    kind "branch1": f1' f2 - 2 f1 f2' + f1 f2 f2''/f2'
    kind "branch2": f1 f2' / f2^2

    Requires f2 to depend on x1 only (sample-checked via df2/dx2).
    """
    if not is_probably_zero(differentiate(m.f2, Var.X2), d, cfg):
        raise HypothesisError("f2 depends on x1 only", "df2/dx2 is not sample-zero")
    f1, f2 = m.f1, m.f2
    f1p = differentiate(f1, Var.X1)
    f2p = differentiate(f2, Var.X1)
    if kind == "branch1":
        f2pp = differentiate(f2p, Var.X1)
        _check_nowhere_zero([("f2'", f2p)], d, cfg)
        condition = simplify(
            Add(
                Sub(Mul(f1p, f2), Mul(Constant(2.0), Mul(f1, f2p))),
                Div(Mul(Mul(f1, f2), f2pp), f2p),
            )
        )
        guards = [f2p]
    elif kind == "branch2":
        condition = simplify(Div(Mul(f1, f2p), Pow(f2, Constant(2.0))))
        guards = [f2]
    else:
        raise ValueError(f"unknown admissibility kind {kind!r}")
    points = sample_points(d, cfg, merge_guards(guards, [condition]))
    value = _one_by_one([condition])
    values = [v for v, in (value(x1, x2) for x1, x2 in points) if v is not None]
    if len(values) < _enough(cfg.samples):
        raise DomainTooSingularError(
            f"condition was evaluable at only {len(values)} of {cfg.samples} requested points"
        )
    mean = sum(values) / len(values)
    spread = max(values) - min(values)
    # A constant is finite at every point.  The spread test alone passes
    # an infinite value (inf <= tol*(1 + inf)), and max and min skip a
    # NaN that is not first.
    is_constant = all(map(math.isfinite, values)) and spread <= cfg.tolerance * (1.0 + abs(mean))
    return is_constant, mean


# Fixed f2 pool for the randomized soundness suites; reproducibility of
# the property tests is worth more than tree diversity here.
def _pool_exp(var: Expr, a: float) -> Expr:
    return Apply("exp", Mul(Constant(a), var))


def _pool_cosh_plus_2(var: Expr, a: float) -> Expr:
    return Add(Apply("cosh", Mul(Constant(a), var)), Constant(2.0))


def _pool_cubic_plus_5(var: Expr, a: float) -> Expr:
    return Add(Pow(var, Constant(3.0)), Constant(5.0))


# name -> (builder, domain on which the derivative is safely nonzero)
F2_POOL: dict[str, tuple] = {
    "exp": (_pool_exp, Domain()),
    "cosh_plus_2": (_pool_cosh_plus_2, Domain(x1_range=(0.25, 1.25))),
    "cubic_plus_5": (_pool_cubic_plus_5, Domain(x1_range=(0.25, 1.25))),
}
