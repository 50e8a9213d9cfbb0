"""Seeded sampling engine and the finite-difference oracle.

Every sampled verdict in the package draws its points here, and every
symbolic derivative can be cross-checked against a central difference
that never touches the symbolic differentiation path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .expr import (
    EVAL_ERRORS,
    Domain,
    EvaluationError,
    Expr,
    Point,
    Var,
    compile_expr,
    compile_many,
    denominators,
    differentiate,
    evaluate,
    kink_arguments,
)

OVERSAMPLE_FACTOR = 100


class DomainTooSingularError(RuntimeError):
    """Guard rejection left too few usable sample points."""


@dataclass(frozen=True)
class SamplingConfig:
    samples: int = 200
    seed: int = 42
    tolerance: float = 1e-9
    fd_step: float = 1e-5
    fd_tolerance: float = 1e-5

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for x in (self.tolerance, self.fd_step, self.fd_tolerance):
            if not (x > 0 and math.isfinite(x)):
                raise ValueError("step and tolerances must be positive and finite")


def sample_points(
    d: Domain,
    cfg: SamplingConfig,
    guards: Sequence[Expr] = (),
) -> list[Point]:
    """Seeded uniform points in `d` at which every guard expression has
    magnitude >= d.guard.

    Candidates are drawn one at a time from random.Random(cfg.seed), so
    the accepted list is a pure function of (d, cfg, guards).  Gives up
    after 100x oversampling; fewer than half the requested points is a
    DomainTooSingularError.
    """
    rng = random.Random(cfg.seed)
    guard_values = compile_many(guards)
    points: list[Point] = []
    for _ in range(cfg.samples * OVERSAMPLE_FACTOR):
        if len(points) == cfg.samples:
            break
        x1 = rng.uniform(*d.x1_range)
        x2 = rng.uniform(*d.x2_range)
        try:
            values = guard_values(x1, x2)
        except EVAL_ERRORS:
            continue
        if not any(abs(v) < d.guard for v in values):
            points.append(Point(x1, x2))
    if len(points) < max(1, -(-cfg.samples // 2)):
        raise DomainTooSingularError(
            f"accepted {len(points)} of {cfg.samples} requested points "
            f"after {OVERSAMPLE_FACTOR}x oversampling"
        )
    return points


def merge_guards(guards: Iterable[Expr], exprs: Iterable[Expr]) -> list[Expr]:
    """The guards, then each denominator of `exprs` not already listed:
    every subexpression that must stay away from zero at a sample point
    where `exprs` are evaluated.  Deduplicated structurally, in
    first-occurrence order."""
    merged = dict.fromkeys(guards)
    for e in exprs:
        merged.update(dict.fromkeys(denominators(e)))
    return list(merged)


def nowhere_zero(e: Expr, d: Domain, cfg: SamplingConfig) -> tuple[bool, str]:
    """Sample-check the 'nowhere zero on the domain' hypothesis.

    Plain uniform points (no guards): every |e(p)| must clear d.guard
    and the sign must be constant.  A strict sign change witnesses a
    zero crossing that pointwise magnitudes alone cannot see.
    """
    rng = random.Random(cfg.seed)
    fn = compile_expr(e)
    saw_pos = saw_neg = False
    for _ in range(cfg.samples):
        p = Point(rng.uniform(*d.x1_range), rng.uniform(*d.x2_range))
        try:
            v = fn(p.x1, p.x2)
        except EVAL_ERRORS:
            return False, f"undefined at (x1={p.x1!r}, x2={p.x2!r})"
        if abs(v) < d.guard:
            return False, f"|value| = {abs(v)!r} < guard at (x1={p.x1!r}, x2={p.x2!r})"
        saw_pos = saw_pos or v > 0
        saw_neg = saw_neg or v < 0
        if saw_pos and saw_neg:
            return False, "sign change detected (zero crossing on the domain)"
    return True, ""


def fd_partial(e: Expr, p: Point, v: Var, h: float) -> float:
    """Central difference (e(p + h e_v) - e(p - h e_v)) / (2h)."""
    try:
        hi = evaluate(e, p.shifted(v, h))
        lo = evaluate(e, p.shifted(v, -h))
    except EvaluationError as err:
        raise EvaluationError(f"finite-difference stencil failed: {err}") from None
    return (hi - lo) / (2.0 * h)


@dataclass(frozen=True)
class FdValidation:
    """Outcome of comparing symbolic partials against central differences."""

    max_rel_error: float
    points_used: int
    points_skipped: int


def fd_validate(
    e: Expr,
    d: Domain,
    cfg: SamplingConfig,
    guards: Sequence[Expr] = (),
) -> FdValidation:
    """Max over sampled points and both variables of
    |symbolic - fd| / (1 + |symbolic|).

    Point/variable pairs where the stencil straddles an abs/sign kink,
    or where either side is undefined, are skipped and counted.  A NaN
    deviation (say, both sides non-finite) makes the maximum math.inf.
    """
    points = sample_points(d, cfg, merge_guards(guards, [e]))
    fn = compile_expr(e)
    h = cfg.fd_step
    kinks = [compile_expr(k) for k in kink_arguments(e)]
    derivs = {v: compile_expr(differentiate(e, v)) for v in (Var.X1, Var.X2)}
    worst = 0.0
    used = skipped = 0
    for p in points:
        for v in (Var.X1, Var.X2):
            stencil = (_shifted(p, v, -h), _shifted(p, v, 0.0), _shifted(p, v, h))
            if None in stencil or _stencil_straddles_kink(kinks, stencil):
                skipped += 1
                continue
            try:
                sym = derivs[v](p.x1, p.x2)
                fd = (fn(*stencil[2]) - fn(*stencil[0])) / (2.0 * h)
            except EVAL_ERRORS:
                skipped += 1
                continue
            used += 1
            err = abs(sym - fd) / (1.0 + abs(sym))
            if err != err:  # NaN
                err = math.inf
            worst = max(worst, err)
    return FdValidation(max_rel_error=worst, points_used=used, points_skipped=skipped)


def _shifted(p: Point, v: Var, offset: float) -> tuple[float, float] | None:
    """The coordinates of p.shifted(v, offset), or None where they leave
    the finite plane (Point rejects those)."""
    if v is Var.X1:
        x1, x2 = p.x1 + offset, p.x2
    else:
        x1, x2 = p.x1, p.x2 + offset
    return (x1, x2) if math.isfinite(x1) and math.isfinite(x2) else None


def _stencil_straddles_kink(kinks, stencil) -> bool:
    for k in kinks:
        signs = set()
        for q in stencil:
            try:
                val = k(*q)
            except EVAL_ERRORS:
                return True
            signs.add(val > 0 if val != 0 else None)
        if len(signs) > 1:
            return True
    return False


def sampled_max_abs(
    exprs: Sequence[Expr],
    points: Sequence[Point],
) -> tuple[list[float], int]:
    """Max |value| of each expression over the points.

    Points where any expression is undefined are dropped for all of
    them, keeping the maxima comparable.  A NaN or infinite value at a
    used point makes that maximum math.inf.  Returns (maxima, points
    used).
    """
    fn = compile_many(exprs)
    maxima = [0.0] * len(exprs)
    used = 0
    for p in points:
        try:
            row = fn(p.x1, p.x2)
        except EVAL_ERRORS:
            continue
        used += 1
        for i, v in enumerate(row):
            v = abs(v)
            if v != v:  # NaN
                v = math.inf
            if v > maxima[i]:
                maxima[i] = v
    return maxima, used


def covered_max_abs(
    exprs: Sequence[Expr],
    d: Domain,
    cfg: SamplingConfig,
    guards: Iterable[Expr],
    what: str,
) -> tuple[list[float], int]:
    """`sampled_max_abs` of `exprs` over the points of `d` that clear the
    guards and the denominators of `exprs`.  Raises
    DomainTooSingularError, naming the expressions as `what`, when they
    were evaluable at fewer than half the requested points."""
    points = sample_points(d, cfg, merge_guards(guards, exprs))
    maxima, used = sampled_max_abs(exprs, points)
    if used < max(1, cfg.samples // 2):
        raise DomainTooSingularError(
            f"{what} were evaluable at only {used} of {cfg.samples} requested points"
        )
    return maxima, used


def sampled_range(e: Expr, points: Sequence[Point]) -> tuple[float, float]:
    """(min, max) of `e` over the evaluable points.  A NaN value at an
    evaluable point makes the range (-math.inf, math.inf)."""
    fn = compile_expr(e)
    lo = math.inf
    hi = -math.inf
    for p in points:
        try:
            v = fn(p.x1, p.x2)
        except EVAL_ERRORS:
            continue
        if v != v:  # NaN
            return -math.inf, math.inf
        lo = min(lo, v)
        hi = max(hi, v)
    if lo > hi:
        raise DomainTooSingularError("expression was nowhere evaluable on the sample")
    return lo, hi
