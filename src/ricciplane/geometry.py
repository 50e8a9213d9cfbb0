"""Curvature of diagonal metrics on the plane.

The metric is g = f1^-2 dx1 (x) dx1 + f2^-2 dx2 (x) dx2 with f1, f2
nowhere zero, carrying the orthonormal frame E1 = f1 d/dx1,
E2 = f2 d/dx2.  Everything downstream works in frame components, so
this module is the only place coordinate derivatives of the metric
functions appear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
    differentiate,
    is_probably_zero,
    simplify,
)
from .numeric import DomainTooSingularError, SamplingConfig, nowhere_zero

ZERO = Constant(0.0)


@dataclass(frozen=True)
class DiagonalMetric:
    """The pair (f1, f2); both must be nowhere zero on the working domain."""

    f1: Expr
    f2: Expr

    def component(self, i: int) -> Expr:
        if i == 1:
            return self.f1
        if i == 2:
            return self.f2
        raise ValueError(f"frame index must be 1 or 2, got {i}")

    @functools.cached_property
    def _curvature(self) -> "CurvatureData":
        # Derived once per instance.  A cached_property is no dataclass
        # field, so it stays out of ==, hash and repr; __getstate__
        # keeps it out of pickles.
        return _derive_curvature(self)

    def __getstate__(self) -> dict:
        return {"f1": self.f1, "f2": self.f2}


@dataclass(frozen=True)
class CurvatureData:
    """h12, h21, the common diagonal Ricci entry rho, and r = 2*rho.

    The Ricci operator is rho times the identity in the frame: equal
    diagonal entries, zero off-diagonal entry.
    """

    h12: Expr
    h21: Expr
    rho: Expr
    r: Expr


def validate_metric(m: DiagonalMetric, d: Domain, cfg: SamplingConfig) -> None:
    """Sample-check that f1 and f2 are nowhere zero on `d`.

    Raises DomainTooSingularError naming the failing component; the
    hypothesis is only ever checked at seeded sample points, never proved.
    A component shared by f1 and f2 (one interned node) is checked once.
    """
    components = [("f1", m.f1)] if m.f2 is m.f1 else [("f1", m.f1), ("f2", m.f2)]
    for label, component in components:
        ok, reason = nowhere_zero(component, d, cfg)
        if not ok:
            raise DomainTooSingularError(f"metric component {label} = {component}: {reason}")


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


def is_flat(m: DiagonalMetric, d: Domain, cfg: SamplingConfig) -> bool:
    """Whether rho vanishes on `d` at sampling precision.

    In the flat regime Q = 0 and the field equation degenerates to
    'V is parallel'.
    """
    return is_probably_zero(ricci(m).rho, d, cfg.samples, cfg.seed, cfg.tolerance)
