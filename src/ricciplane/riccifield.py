"""Verification of the field equation nabla V = Q.

A frame field V = V1 E1 + V2 E2 satisfies the equation exactly when the
four covariant-derivative entries g(nabla_{E_i} V, E_j) match the Ricci
entries (rho, rho, 0, 0).  The verdict is always decided on sampled
residual maxima, never on the symbolic shape of the residuals.
"""

from __future__ import annotations

import collections
from collections.abc import Iterable, Sequence

from .expr import (
    Add,
    Div,
    Domain,
    Expr,
    Mul,
    Sub,
    simplify,
)
from .geometry import (
    DiagonalMetric,
    channel_coefficients,
    curvature_sweep,
    frame_derivative,
    ricci,
    validate_metric,
)
from .numeric import SamplingConfig, _extrema, merge_guards, sample_points


class FrameField(collections.namedtuple("FrameField", "V1 V2")):
    """Orthonormal-frame components of a vector field V = V1 E1 + V2 E2."""

    __slots__ = ()


class ResidualReport(
    collections.namedtuple("ResidualReport", "residuals max_abs verdict points_used seed tolerance curvature_ranges")
):
    """Residuals of the four field equations (R1-R4) with their sampled
    maxima, in that order; verdict is "pass" or "fail";
    curvature_ranges is the sampled (min, max) of h12, h21, rho and r,
    as `sampled_range` gives them."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def covariant_row(m: DiagonalMetric, V: FrameField, i: int) -> tuple[Expr, Expr]:
    """Row i of `covariant_matrix`, built alone: the pair
    (g(nabla_{E_i} V, E_1), g(nabla_{E_i} V, E_2))."""
    h = channel_coefficients(m)[i - 1]  # h12 in row 1, h21 in row 2
    first, second = (Sub, Add) if i == 1 else (Add, Sub)
    return (
        simplify(first(frame_derivative(m, V.V1, i), Mul(h, V.V2))),
        simplify(second(frame_derivative(m, V.V2, i), Mul(h, V.V1))),
    )


def covariant_matrix(m: DiagonalMetric, V: FrameField) -> dict[tuple[int, int], Expr]:
    """g(nabla_{E_i} V, E_j) for (i, j) in {1,2}^2, row by row.

    (1,1): E1(V1) - h12 V2    (1,2): E1(V2) + h12 V1
    (2,1): E2(V1) + h21 V2    (2,2): E2(V2) - h21 V1
    """
    return {(i, j): entry for i in (1, 2) for j, entry in zip((1, 2), covariant_row(m, V, i))}


def residual_system(m: DiagonalMetric, V: FrameField) -> tuple[Expr, Expr, Expr, Expr]:
    """R1..R4: the four entries of nabla V - Q in the frame.

    R1 and R2 compare both diagonal entries to rho directly, which is
    strictly stronger than equating them to each other; R3 and R4 are
    the off-diagonal entries (the Ricci off-diagonal entry is zero).
    """
    cov = covariant_matrix(m, V)
    rho = ricci(m).rho
    return (
        simplify(Sub(cov[(1, 1)], rho)),
        simplify(Sub(cov[(2, 2)], rho)),
        cov[(1, 2)],
        cov[(2, 1)],
    )


def equation_guards(m: DiagonalMetric, exprs) -> list[Expr]:
    """Sampling guards: the metric components plus every denominator
    appearing in the expressions to be sampled."""
    return merge_guards((m.f1, m.f2), exprs)


def verify(
    m: DiagonalMetric, V: FrameField, d: Domain, cfg: SamplingConfig, extra_groups: Iterable[Sequence[Expr]] | None = None
) -> ResidualReport:
    """Sample the four residuals of nabla V = Q over `d`.

    The metric is sample-validated first.  Pass iff every residual's
    max |value| over the accepted points is <= cfg.tolerance.  The
    curvature's ranges and rho's folds (`curvature_sweep`), which share
    nodes with the residuals, are swept with them; their errors come
    after a residual shortfall.

    Lazy `extra_groups` (the identity residuals) are built only if the
    residuals pass at the first point of their list, then swept with them
    as `covered_sweep`'s late groups, unchecked: a later `covered_sweep`
    of them in the job finds them recorded.
    """
    validate_metric(m, d, cfg)
    residuals = residual_system(m, V)
    late = extra_groups if extra_groups is not None and _passes_first_point(m, residuals, d, cfg) else ()
    [(maxima, used)], ranges = curvature_sweep(m, d, cfg, [residuals], "residuals", late)
    return ResidualReport(
        residuals=residuals,
        max_abs=tuple(maxima),
        verdict="pass" if all(v <= cfg.tolerance for v in maxima) else "fail",
        points_used=used,
        seed=cfg.seed,
        tolerance=cfg.tolerance,
        curvature_ranges=tuple(ranges),
    )


def _passes_first_point(m: DiagonalMetric, residuals: Sequence[Expr], d: Domain, cfg: SamplingConfig) -> bool:
    """Whether the residuals are within tolerance, or undefined, at the
    first point of their sampled list: where not, `verify` fails."""
    [(states, _)] = _extrema([residuals], sample_points(d, cfg, equation_guards(m, residuals))[:1])
    return all(not nan and -cfg.tolerance <= lo and hi <= cfg.tolerance for lo, hi, nan in states)


def from_coordinates(m: DiagonalMetric, A: Expr, B: Expr) -> FrameField:
    """Convert a coordinate field A d/dx1 + B d/dx2 to frame components
    (A/f1, B/f2)."""
    return FrameField(V1=simplify(Div(A, m.f1)), V2=simplify(Div(B, m.f2)))


def divergence(m: DiagonalMetric, V: FrameField) -> Expr:
    """div(V) = g(nabla_{E1}V, E1) + g(nabla_{E2}V, E2)."""
    cov = covariant_matrix(m, V)
    return simplify(Add(cov[(1, 1)], cov[(2, 2)]))


def closedness_defect(m: DiagonalMetric, V: FrameField) -> Expr:
    """(d eta)(E1, E2) for the dual 1-form eta of V:
    g(nabla_{E1}V, E2) - g(nabla_{E2}V, E1)."""
    cov = covariant_matrix(m, V)
    return simplify(Sub(cov[(1, 2)], cov[(2, 1)]))
