"""Diagonal plane metrics, their curvature, and Ricci vector fields.

The package computes the curvature of metrics
g = f1^-2 dx1 (x) dx1 + f2^-2 dx2 (x) dx2, decides by seeded sampling
whether a vector field satisfies nabla V = Q, constructs the proved
solution families, checks the consequence identities, and cross-checks
every symbolic derivative against a finite-difference oracle.
"""

__version__ = "0.1.0"

from .expr import (
    Domain,
    EvaluationError,
    Expr,
    ParseError,
    Var,
    differentiate,
    is_probably_zero,
    parse,
    simplify,
    to_string,
)
from .families import (
    Branch1,
    Branch2,
    ConstantComponents,
    ConstantMetric,
    HypothesisError,
    admissibility,
    construct,
    remark_metric,
)
from .geometry import CurvatureData, DiagonalMetric, channel_coefficients, is_flat, ricci
from .identities import PotentialFunction, gradient_field, hessian, laplacian
from .numeric import DomainTooSingularError, SamplingConfig, fd_validate, sample_points
from .riccifield import (
    FrameField,
    ResidualReport,
    closedness_defect,
    covariant_matrix,
    divergence,
    from_coordinates,
    residual_system,
    verify,
)

__all__ = [
    "__version__",
    "Branch1",
    "Branch2",
    "ConstantComponents",
    "ConstantMetric",
    "CurvatureData",
    "DiagonalMetric",
    "Domain",
    "DomainTooSingularError",
    "EvaluationError",
    "Expr",
    "FrameField",
    "HypothesisError",
    "ParseError",
    "PotentialFunction",
    "ResidualReport",
    "SamplingConfig",
    "Var",
    "admissibility",
    "channel_coefficients",
    "closedness_defect",
    "construct",
    "covariant_matrix",
    "differentiate",
    "divergence",
    "fd_validate",
    "from_coordinates",
    "gradient_field",
    "hessian",
    "is_flat",
    "is_probably_zero",
    "laplacian",
    "parse",
    "remark_metric",
    "residual_system",
    "ricci",
    "sample_points",
    "simplify",
    "to_string",
    "verify",
]
