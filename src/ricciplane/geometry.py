"""Curvature of diagonal metrics on the plane.

The metric is g = f1^-2 dx1 (x) dx1 + f2^-2 dx2 (x) dx2 with f1, f2
nowhere zero, carrying the orthonormal frame E1 = f1 d/dx1,
E2 = f2 d/dx2.  Everything downstream works in frame components, so
this module is the only place coordinate derivatives of the metric
functions appear.
"""

from __future__ import annotations

import collections
import functools

from .expr import (
    Constant,
    Div,
    Domain,
    Expr,
    Mul,
    Negate,
    Pow,
    Sub,
    Var,
    ZERO,
    _finiteness_folds,
    _once_per_job,
    differentiate,
    is_probably_zero,
    simplify,
)
from .numeric import DomainTooSingularError, SamplingConfig, covered_sweep, first_zero_failure


class DiagonalMetric(collections.namedtuple("DiagonalMetric", "f1 f2")):
    """The pair (f1, f2); both must be nowhere zero on the working domain."""

    def component(self, i: int) -> Expr:
        if i == 1:
            return self.f1
        if i == 2:
            return self.f2
        raise ValueError(f"frame index must be 1 or 2, got {i}")

    @functools.cached_property
    def _curvature(self) -> "CurvatureData":
        # Derived once per instance and kept in the instance __dict__
        # (the class has no __slots__), which is no field: it stays out
        # of ==, hash and repr, and __getstate__ keeps it out of pickles.
        return _derive_curvature(self)

    def __getstate__(self) -> None:
        return None


class CurvatureData(collections.namedtuple("CurvatureData", "h12 h21 rho r")):
    """h12, h21, the common diagonal Ricci entry rho, and r = 2*rho.

    The Ricci operator is rho times the identity in the frame: equal
    diagonal entries, zero off-diagonal entry.
    """

    __slots__ = ()


def validate_metric(m: DiagonalMetric, d: Domain, cfg: SamplingConfig) -> None:
    """Sample-check that f1 and f2 are nowhere zero on `d`.

    Raises DomainTooSingularError naming the failing component, f1's
    failure first (`first_zero_failure`); the hypothesis is only ever
    checked at seeded sample points, never proved.
    """
    failure = first_zero_failure([("f1", m.f1), ("f2", m.f2)], d, cfg)
    if failure is not None:
        raise DomainTooSingularError("metric component {} = {}: {}".format(*failure))


def frame_derivative(m: DiagonalMetric, u: Expr, i: int) -> Expr:
    """E_i(u) = f_i * du/dx^i."""
    var = Var.X1 if i == 1 else Var.X2
    return simplify(Mul(m.component(i), differentiate(u, var)))


def channel_coefficients(m: DiagonalMetric) -> tuple[Expr, Expr]:
    """h12 = (f2/f1) df1/dx2 and h21 = (f1/f2) df2/dx1, as in `ricci(m)`."""
    curv = m._curvature
    return curv.h12, curv.h21


def connection_table(m: DiagonalMetric) -> dict[tuple[int, int], tuple[Expr, Expr]]:
    """Frame components of nabla_{E_i} E_j, keyed by (i, j)."""
    h12, h21 = channel_coefficients(m)
    return {
        (1, 1): (ZERO, h12),
        (2, 2): (h21, ZERO),
        (1, 2): (simplify(Negate(h12)), ZERO),
        (2, 1): (ZERO, simplify(Negate(h21))),
    }


def lie_bracket(m: DiagonalMetric) -> tuple[Expr, Expr]:
    """[E1, E2] = -h12 E1 + h21 E2 in frame components."""
    h12, h21 = channel_coefficients(m)
    return simplify(Negate(h12)), h21


def ricci(m: DiagonalMetric) -> CurvatureData:
    """Ricci data of the metric: rho = E1(h21) + E2(h12) - h21^2 - h12^2.
    Computed once per DiagonalMetric instance; later calls return the
    same object."""
    return m._curvature


def _derive_curvature(m: DiagonalMetric) -> CurvatureData:
    h12 = simplify(Mul(Div(m.f2, m.f1), differentiate(m.f1, Var.X2)))
    h21 = simplify(Mul(Div(m.f1, m.f2), differentiate(m.f2, Var.X1)))
    rho = simplify(
        Sub(
            Sub(
                frame_derivative(m, h21, 1) + frame_derivative(m, h12, 2),
                Pow(h21, Constant(2.0)),
            ),
            Pow(h12, Constant(2.0)),
        )
    )
    return CurvatureData(h12=h12, h21=h21, rho=rho, r=simplify(Mul(Constant(2.0), rho)))


def curvature_sweep(m: DiagonalMetric, d: Domain, cfg: SamplingConfig, groups=(), what: str = "curvature", late=()) -> tuple:
    """`covered_sweep` of `groups` (checked, named `what`) and `late`
    guarded by f1 and f2, with the sampled ranges of h12, h21, rho and r
    and of rho's `_finiteness_folds` (found once per job), which `is_flat`
    reads from the job's record: the groups' (maxima, used) and the four
    ranges."""
    curv = ricci(m)
    ranged = (curv.h12, curv.h21, curv.rho, curv.r)
    folds = _once_per_job(_finiteness_folds, curv.rho)
    results, ranges = covered_sweep(groups, (*ranged, *folds), d, cfg, (m.f1, m.f2), what, late)
    return results, ranges[: len(ranged)]


def is_flat(m: DiagonalMetric, d: Domain, cfg: SamplingConfig) -> bool:
    """Whether rho vanishes on `d` at sampling precision.

    In the flat regime Q = 0 and the field equation degenerates to
    'V is parallel'.
    """
    return is_probably_zero(ricci(m).rho, d, cfg)
