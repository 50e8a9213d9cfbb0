"""Consequence identities for verified fields, and the gradient case.

Everything here is a consequence of nabla V = Q, so the checks are
meaningful for fields that already passed the verifier; they are all
decided by sampling, never by symbolic manipulation.  The gradient case
(V = grad f) carries the Hessian characterization Hess(f) = Ric, the
trace identity for the Laplacian, and the steady-soliton equation,
implemented through (1/2) Lie_{grad h} g = Hess(h) so no Lie-derivative
machinery is needed.
"""

from __future__ import annotations

import collections
from collections.abc import Callable, Iterable, Sequence

from .expr import (
    Add,
    Constant,
    Domain,
    Expr,
    Mul,
    Negate,
    Pow,
    Sub,
    _once_per_job,
    simplify,
)
from .geometry import DiagonalMetric, connection_table, frame_derivative, lie_bracket, ricci
from .numeric import SamplingConfig, covered_sweep
from .riccifield import FrameField, closedness_defect, covariant_row, divergence


class PotentialFunction(collections.namedtuple("PotentialFunction", "f")):
    """A scalar potential; its gradient field is E1(f) E1 + E2(f) E2."""

    __slots__ = ()


def _sampled_ok(m: DiagonalMetric, groups: Iterable[Sequence[Expr]], d: Domain, cfg: SamplingConfig) -> list[bool]:
    """Per group of residuals: is every sampled max |value| within
    tolerance?  One `covered_sweep` call for all groups."""
    swept = covered_sweep(groups, (), d, cfg, (m.f1, m.f2), "identity residuals")[0]
    return [all(v <= cfg.tolerance for v in maxima) for maxima, _ in swept]


def _directional(m: DiagonalMetric, V: FrameField, u: Expr) -> Expr:
    """V(u) = V1 E1(u) + V2 E2(u)."""
    return simplify(
        Add(
            Mul(V.V1, frame_derivative(m, u, 1)),
            Mul(V.V2, frame_derivative(m, u, 2)),
        )
    )


def _norm_squared(V: FrameField) -> Expr:
    return simplify(Add(Pow(V.V1, Constant(2.0)), Pow(V.V2, Constant(2.0))))


def _ric_vv_residuals(m: DiagonalMetric, V: FrameField) -> list[Expr]:
    rho = ricci(m).rho
    norm2 = _norm_squared(V)
    return [simplify(Sub(Mul(rho, norm2), Mul(Constant(0.5), _directional(m, V, norm2))))]


def check_ric_vv(m: DiagonalMetric, V: FrameField, d: Domain, cfg: SamplingConfig) -> bool:
    """Ric(V, V) = (1/2) V(|V|^2): samples rho |V|^2 - (1/2) V(|V|^2)."""
    return _sampled_ok(m, [_ric_vv_residuals(m, V)], d, cfg)[0]


def _scalar_divergence_residuals(m: DiagonalMetric, V: FrameField) -> list[Expr]:
    return [simplify(Sub(divergence(m, V), ricci(m).r))]


def check_scalar_divergence(m: DiagonalMetric, V: FrameField, d: Domain, cfg: SamplingConfig) -> bool:
    """r = div(V): samples div(V) - r."""
    return _sampled_ok(m, [_scalar_divergence_residuals(m, V)], d, cfg)[0]


def check_norm_symmetry(
    m: DiagonalMetric,
    V1: FrameField,
    V2: FrameField,
    d: Domain,
    cfg: SamplingConfig,
) -> bool:
    """V1(|V2|^2) = V2(|V1|^2)."""
    residual = simplify(
        Sub(
            _directional(m, V1, _norm_squared(V2)),
            _directional(m, V2, _norm_squared(V1)),
        )
    )
    return _sampled_ok(m, [[residual]], d, cfg)[0]


def _covariant_field(m: DiagonalMetric, W: FrameField, i: int) -> FrameField:
    """nabla_{E_i} W as a frame field: row i of the covariant entries."""
    return FrameField(*covariant_row(m, W, i))


def _curvature_identity_residuals(m: DiagonalMetric, V: FrameField) -> list[Expr]:
    d1V = _covariant_field(m, V, 1)
    d2V = _covariant_field(m, V, 2)
    n12 = _covariant_field(m, d2V, 1)  # nabla_{E1} nabla_{E2} V
    n21 = _covariant_field(m, d1V, 2)  # nabla_{E2} nabla_{E1} V
    b1, b2 = lie_bracket(m)  # [E1,E2] = b1 E1 + b2 E2 with function coefficients
    rho = ricci(m).rho
    lhs1 = simplify(
        Sub(Sub(n12.V1, n21.V1), Add(Mul(b1, d1V.V1), Mul(b2, d2V.V1)))
    )
    lhs2 = simplify(
        Sub(Sub(n12.V2, n21.V2), Add(Mul(b1, d1V.V2), Mul(b2, d2V.V2)))
    )
    rhs1 = simplify(Negate(frame_derivative(m, rho, 2)))
    rhs2 = frame_derivative(m, rho, 1)
    return [simplify(Sub(lhs1, rhs1)), simplify(Sub(lhs2, rhs2))]


def check_curvature_identity(m: DiagonalMetric, V: FrameField, d: Domain, cfg: SamplingConfig) -> bool:
    """R(E1,E2)V = (nabla_{E1}Q)E2 - (nabla_{E2}Q)E1.

    The left side is assembled from second covariant derivatives; the
    right side collapses to (-E2(rho), E1(rho)) because Q = rho * Id in
    the frame.  Both frame components are sampled.
    """
    return _sampled_ok(m, [_curvature_identity_residuals(m, V)], d, cfg)[0]


def gradient_field(m: DiagonalMetric, p: PotentialFunction) -> FrameField:
    """grad f = E1(f) E1 + E2(f) E2 in the orthonormal frame."""
    return FrameField(
        V1=frame_derivative(m, p.f, 1),
        V2=frame_derivative(m, p.f, 2),
    )


def hessian(m: DiagonalMetric, p: PotentialFunction) -> dict[tuple[int, int], Expr]:
    """Hess(f)(E_i, E_j) = E_i(E_j(f)) - (nabla_{E_i} E_j)(f)."""
    conn = connection_table(m)
    first = {1: frame_derivative(m, p.f, 1), 2: frame_derivative(m, p.f, 2)}
    entries = {}
    for i in (1, 2):
        for j in (1, 2):
            a, b = conn[(i, j)]
            correction = Add(Mul(a, first[1]), Mul(b, first[2]))
            entries[(i, j)] = simplify(Sub(frame_derivative(m, first[j], i), correction))
    return entries


def laplacian(m: DiagonalMetric, p: PotentialFunction) -> Expr:
    """Delta f = trace of the Hessian."""
    h = hessian(m, p)
    return simplify(Add(h[(1, 1)], h[(2, 2)]))


def _steady_soliton_residuals(m: DiagonalMetric, p: PotentialFunction) -> list[Expr]:
    h = hessian(m, p)
    rho = ricci(m).rho
    return [
        simplify(Sub(h[(1, 1)], rho)),
        h[(1, 2)],
        h[(2, 1)],
        simplify(Sub(h[(2, 2)], rho)),
    ]


def check_steady_soliton(m: DiagonalMetric, p: PotentialFunction, d: Domain, cfg: SamplingConfig) -> bool:
    """The steady-soliton equation in gradient form: Hess(f) = Ric
    entrywise (the Lie derivative of g along a gradient is 2 Hess)."""
    return _sampled_ok(m, [_steady_soliton_residuals(m, p)], d, cfg)[0]


def _laplacian_scalar_residuals(m: DiagonalMetric, p: PotentialFunction) -> list[Expr]:
    return [simplify(Sub(laplacian(m, p), ricci(m).r))]


def check_laplacian_scalar(m: DiagonalMetric, p: PotentialFunction, d: Domain, cfg: SamplingConfig) -> bool:
    """Delta f = r for gradient Ricci fields."""
    return _sampled_ok(m, [_laplacian_scalar_residuals(m, p)], d, cfg)[0]


def identity_groups(m: DiagonalMetric, V: FrameField, potential: PotentialFunction | None = None) -> dict[str, Callable]:
    """The consequence identities of a verified field, in report order,
    each with a builder of its residual group: Ric(V, V), the scalar
    divergence, the curvature identity and closedness (the dual 1-form
    of V is closed), plus the steady-soliton and Laplacian identities
    when V is the gradient of `potential`.  Each group's residuals are
    built once per job (`_once_per_job`); a group may be shared: do not
    mutate it."""
    checks = {
        "ric_vv": lambda: _once_per_job(_ric_vv_residuals, m, V),
        "scalar_divergence": lambda: _once_per_job(_scalar_divergence_residuals, m, V),
        "curvature_identity": lambda: _once_per_job(_curvature_identity_residuals, m, V),
        "closedness": lambda: [_once_per_job(closedness_defect, m, V)],
    }
    if potential is not None:
        checks["steady_soliton"] = lambda: _once_per_job(_steady_soliton_residuals, m, potential)
        checks["laplacian_scalar"] = lambda: _once_per_job(_laplacian_scalar_residuals, m, potential)
    return checks


def identity_verdicts(
    m: DiagonalMetric,
    V: FrameField,
    d: Domain,
    cfg: SamplingConfig,
    potential: PotentialFunction | None = None,
) -> dict[str, bool]:
    """Every consequence-identity verdict of `identity_groups`.

    Each verdict equals that of its `check_*` function (closedness has
    none); the residuals of all of them are built and sampled in this
    order and evaluated in one `covered_sweep` call, which finds the
    groups `verify` swept with its residuals recorded.
    """
    checks = identity_groups(m, V, potential)
    groups = (build() for build in checks.values())
    return dict(zip(checks, _sampled_ok(m, groups, d, cfg)))
