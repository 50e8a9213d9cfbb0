"""Seeded sampling engine and the finite-difference oracle.

Every sampled verdict in the package draws its points here, and every
symbolic derivative can be cross-checked against a central difference
that never touches the symbolic differentiation path.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

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


def _draws(d: Domain, seed: int) -> Iterator[tuple[float, float]]:
    """Seeded uniform (x1, x2) pairs in `d`, without end.  Each
    coordinate is lo + (hi - lo)*u, x1 drawn first: bit-identical to
    random.Random(seed).uniform(*d.x1_range), then the same for x2."""
    u = random.Random(seed).random
    a1, b1 = d.x1_range
    a2, b2 = d.x2_range
    w1, w2 = b1 - a1, b2 - a2
    while True:
        yield a1 + w1 * u(), a2 + w2 * u()


# The job scope of `sample_points`: None, or the table
# {(domain, samples, seed): {guard key: (guards, points, rejected)}} of
# the passes the current job has run.  A pass holds its guards, so the
# ids in its key stay valid; `rejected` counts the candidates it drew
# but did not accept.
_STREAM: contextvars.ContextVar[dict | None] = contextvars.ContextVar("ricciplane_job_stream", default=None)


@contextlib.contextmanager
def _job_stream() -> Iterator[None]:
    """Scope in which `sample_points` runs each guard set of a
    (domain, samples, seed) at most once and shares the result.  The
    scope belongs to the current context, so each thread has its own;
    it ends, and its table is dropped, on every exit path."""
    token = _STREAM.set({})
    try:
        yield
    finally:
        _STREAM.reset(token)


def sample_points(
    d: Domain,
    cfg: SamplingConfig,
    guards: Sequence[Expr] = (),
) -> list[Point]:
    """Seeded uniform points in `d` at which every guard expression has
    magnitude >= d.guard.

    Candidates are drawn one at a time from random.Random(cfg.seed), so
    the accepted list is a pure function of (d, cfg.samples, cfg.seed)
    and the set of guards.  Gives up after 100x oversampling; fewer than
    half the requested points is a DomainTooSingularError.

    Within a `_job_stream` scope (each CLI job runs in one), a guard
    set is sampled once and its list is returned again to later calls.
    A call is also served by an earlier pass over a superset of its
    guards that rejected no candidate: that pass accepted the first
    `samples` candidates, its fused kernel computed every guard of the
    subset there without raising, and `compile_many` values are
    bit-identical per expression, so the subset accepts the same
    candidates.  Sets are keyed by node identity, not equality:
    Constant(0.0) == Constant(-0.0), but they can evaluate differently.
    Outside a scope every call samples afresh and returns the same
    points.  The returned list may be shared: callers must not mutate it.
    """
    table = _STREAM.get()
    passes = {} if table is None else table.setdefault((d, cfg.samples, cfg.seed), {})
    guards = tuple(guards)
    key = frozenset(map(id, guards))
    done = passes.get(key)
    if done is None:
        done = next((p for k, p in passes.items() if p[2] == 0 and key <= k), None)
    if done is None:
        done = passes[key] = _draw_pass(d, cfg, guards)
    return done[1]


def _draw_pass(d: Domain, cfg: SamplingConfig, guards: tuple[Expr, ...]) -> tuple[tuple[Expr, ...], list[Point], int]:
    guard_values = compile_many(guards)
    guard = d.guard
    points: list[Point] = []
    rejected = 0
    for x1, x2 in islice(_draws(d, cfg.seed), cfg.samples * OVERSAMPLE_FACTOR):
        try:
            values = guard_values(x1, x2)
        except EVAL_ERRORS:
            rejected += 1
            continue
        for v in values:
            if abs(v) < guard:
                rejected += 1
                break
        else:
            # The draws are finite (Domain keeps hi - lo finite), so the
            # checking constructor is skipped.
            points.append(tuple.__new__(Point, (x1, x2)))
            if len(points) == cfg.samples:
                break
    if len(points) < _enough(cfg.samples):
        raise DomainTooSingularError(
            f"accepted {len(points)} of {cfg.samples} requested points "
            f"after {OVERSAMPLE_FACTOR}x oversampling"
        )
    return guards, points, rejected


def _enough(samples: int) -> int:
    """The fewest usable points a sampled verdict accepts: half of
    `samples`, rounded up, and at least one."""
    return max(1, -(-samples // 2))


def merge_guards(guards: Iterable[Expr], exprs: Iterable[Expr]) -> list[Expr]:
    """The guards, then each denominator of `exprs` not already listed:
    every subexpression that must stay away from zero at a sample point
    where `exprs` are evaluated.  Deduplicated structurally, in
    first-occurrence order."""
    merged = dict.fromkeys(guards)
    for e in exprs:
        merged.update(dict.fromkeys(denominators(e)))
    return list(merged)


_SIGN_CHANGE = "sign change detected (zero crossing on the domain)"


def nowhere_zero(e: Expr, d: Domain, cfg: SamplingConfig) -> tuple[bool, str]:
    """Sample-check the 'nowhere zero on the domain' hypothesis.

    Plain uniform points (no guards): every e(p) must be finite, |e(p)|
    must clear d.guard and the sign must be constant.  A strict sign
    change witnesses a zero crossing that pointwise magnitudes alone
    cannot see; a NaN has no sign and is never near zero, so it is
    rejected on its own.
    """
    fn = compile_expr(e)
    guard, inf = d.guard, math.inf
    saw_pos = saw_neg = False
    for x1, x2 in islice(_draws(d, cfg.seed), cfg.samples):
        try:
            v = fn(x1, x2)
        except EVAL_ERRORS:
            return False, f"undefined at (x1={x1!r}, x2={x2!r})"
        # Domain keeps guard > 0: these two ranges split the finite
        # values with |v| >= guard by sign.
        if guard <= v < inf:
            if saw_neg:
                return False, _SIGN_CHANGE
            saw_pos = True
        elif -inf < v <= -guard:
            if saw_pos:
                return False, _SIGN_CHANGE
            saw_neg = True
        elif abs(v) < guard:
            return False, f"|value| = {abs(v)!r} < guard at (x1={x1!r}, x2={x2!r})"
        else:
            return False, f"non-finite value {v!r} at (x1={x1!r}, x2={x2!r})"
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
    exprs: Expr | Sequence[Expr],
    d: Domain,
    cfg: SamplingConfig,
    guards: Sequence[Expr] = (),
) -> FdValidation | list[FdValidation]:
    """Max over sampled points and both variables of
    |symbolic - fd| / (1 + |symbolic|).

    A lone Expr gives one FdValidation, a sequence one per expression,
    in order.  Each expression is sampled at the points that clear the
    guards and its own denominators.  Point/variable pairs where the
    stencil straddles an abs/sign kink of the expression, or where
    either side is undefined, are skipped and counted.  A NaN deviation
    (say, both sides non-finite) makes the maximum math.inf.

    Each expression is sampled, then differentiated, before the next,
    so errors surface as if the expressions were validated one at a
    time.  Expressions sampled to the same list (the job scope of
    `sample_points` makes that the usual case) share one sweep.
    """
    if isinstance(exprs, Expr):
        return fd_validate([exprs], d, cfg, guards)[0]
    built = []
    for e in exprs:
        points = sample_points(d, cfg, merge_guards(guards, [e]))
        slopes = (differentiate(e, Var.X1), differentiate(e, Var.X2))
        built.append(((e, slopes, kink_arguments(e)), points))
    return _per_point_list(built, lambda items, points: _fd_sweep(items, points, cfg.fd_step))


def _fd_sweep(
    built: list[tuple[Expr, tuple[Expr, Expr], list[Expr]]],
    points: Sequence[Point],
    h: float,
) -> list[FdValidation]:
    """`fd_validate` of (expression, (d/dx1, d/dx2), kink arguments)
    triples over one point list.  One kernel gives every value at the
    stencil points and one every derivative at the point; where either
    raises, each entry is evaluated on its own kernel, so an expression
    is skipped only where it is undefined itself."""
    n = len(built)
    values = _lenient([e for e, _, _ in built])
    slopes = _lenient([s[j] for j in (0, 1) for _, s, _ in built])
    kink_fns = {k: compile_expr(k) for _, _, ks in built for k in ks}
    owned = [(i, ks) for i, (_, _, ks) in enumerate(built) if ks]
    two_h = 2.0 * h
    worst = [0.0] * n
    skipped = [0] * n  # each (point, variable) pair is skipped or used
    for x1, x2 in points:
        sym = slopes(x1, x2)
        # The coordinates Point.shifted gives: x + 0.0 turns -0.0 into 0.0.
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


def _lenient(exprs: Sequence[Expr]) -> Callable[[float, float], Sequence[float | None]]:
    """A callable (x1, x2) -> the values of `exprs`, with None for each
    expression undefined there.  One fused kernel; at a point where it
    raises, each expression is evaluated on its own kernel, compiled on
    first need."""
    fused = compile_many(exprs)
    singles: list = []

    def evaluate_all(x1: float, x2: float):
        try:
            return fused(x1, x2)
        except EVAL_ERRORS:
            if not singles:
                singles.extend(map(compile_expr, exprs))
            return [_value_or_none(f, x1, x2) for f in singles]

    return evaluate_all


def _straddles(kink, stencil) -> bool:
    """Whether the kink argument is undefined somewhere on the stencil
    or takes more than one of the signs +, 0, -."""
    signs = set()
    for q in stencil:
        try:
            val = kink(*q)
        except EVAL_ERRORS:
            return True
        signs.add(val > 0 if val != 0 else None)
    return len(signs) > 1


def sampled_max_abs(
    exprs: Sequence[Expr] | Sequence[Sequence[Expr]],
    points: Sequence[Point],
) -> tuple[list[float], int] | list[tuple[list[float], int]]:
    """Max |value| of each expression over the points.

    A sequence of Expr is one group and gives (maxima, points used); a
    sequence of groups gives one such pair per group, in order.  Points
    where any expression of a group is undefined are dropped for the
    whole group, keeping its maxima comparable; other groups keep them.
    A NaN or infinite value at a used point makes that maximum math.inf.

    One kernel evaluates every group.  At a point where it raises, each
    group is evaluated on its own kernel, compiled on first need, so a
    group is dropped only where it is undefined itself.
    """
    if all(isinstance(e, Expr) for e in exprs):
        return sampled_max_abs([exprs], points)[0]
    groups = [list(g) for g in exprs]
    fn = compile_many([e for g in groups for e in g])
    singles: list = [None] * len(groups)
    maxima = [0.0] * sum(map(len, groups))
    drops = [0] * len(groups)
    for x1, x2 in points:
        try:
            row = fn(x1, x2)
        except EVAL_ERRORS:
            if len(groups) == 1:  # its own kernel is `fn`
                drops[0] += 1
                continue
            row = []
            for k, g in enumerate(groups):
                if singles[k] is None:
                    singles[k] = compile_many(g)
                try:
                    row.extend(singles[k](x1, x2))
                except EVAL_ERRORS:
                    drops[k] += 1
                    row.extend([0.0] * len(g))  # leaves its maxima as they are
        for i, v in enumerate(row):
            v = abs(v)
            if v != v:  # NaN
                v = math.inf
            if v > maxima[i]:
                maxima[i] = v
    results = []
    start = 0
    for g, dropped in zip(groups, drops):
        results.append((maxima[start : start + len(g)], len(points) - dropped))
        start += len(g)
    return results


def covered_max_abs(
    groups: Iterable[Sequence[Expr]],
    d: Domain,
    cfg: SamplingConfig,
    guards: Iterable[Expr],
    what: str,
) -> list[tuple[list[float], int]]:
    """`sampled_max_abs` of each group over the points of `d` that clear
    the guards and the denominators of that group: one (maxima, points
    used) per group, in order.  Raises DomainTooSingularError, naming
    the expressions as `what`, when a group was evaluable at fewer than
    half the requested points.

    `groups` may be lazy; each group is built and sampled in turn.
    Groups sampled to the same list (the job scope of `sample_points`
    makes that the usual case) share one sweep.  Errors surface as if
    each group were built, sampled and checked before the next: when
    building or sampling a group raises, a shortfall of an earlier
    group is raised instead.
    """
    guards = tuple(guards)
    collected: list[tuple[Sequence[Expr], list[Point]]] = []
    try:
        for group in groups:
            collected.append((group, sample_points(d, cfg, merge_guards(guards, group))))
    except Exception:
        _checked_sweeps(collected, cfg, what)
        raise
    return _checked_sweeps(collected, cfg, what)


def _checked_sweeps(
    collected: list[tuple[Sequence[Expr], list[Point]]],
    cfg: SamplingConfig,
    what: str,
) -> list[tuple[list[float], int]]:
    """One `sampled_max_abs` sweep per distinct point list, then the
    first shortfall in group order."""
    results = _per_point_list(collected, sampled_max_abs)
    for _, used in results:
        if used < _enough(cfg.samples):
            raise DomainTooSingularError(
                f"{what} were evaluable at only {used} of {cfg.samples} requested points"
            )
    return results


def _per_point_list(collected: list[tuple[object, list[Point]]], sweep: Callable) -> list:
    """`sweep(items, points)` once per distinct point list (by identity)
    over the items sampled to it; the results in the order of
    `collected`."""
    sweeps: dict[int, tuple[list[Point], list[int]]] = {}
    for k, (_, points) in enumerate(collected):
        sweeps.setdefault(id(points), (points, []))[1].append(k)
    results: list = [None] * len(collected)
    for points, members in sweeps.values():
        for k, result in zip(members, sweep([collected[k][0] for k in members], points)):
            results[k] = result
    return results


def sampled_range(
    exprs: Expr | Sequence[Expr],
    points: Sequence[Point],
) -> tuple[float, float] | list[tuple[float, float]]:
    """(min, max) of each expression over the points where it is
    evaluable; a NaN value at such a point makes its range
    (-math.inf, math.inf).  A lone Expr gives one pair, a sequence a
    list of pairs, in order.

    One kernel evaluates every expression.  At a point where it raises,
    each expression is evaluated on its own, so an expression is
    skipped only where it is undefined itself.  Raises
    DomainTooSingularError when an expression is nowhere evaluable.
    """
    if isinstance(exprs, Expr):
        return sampled_range([exprs], points)[0]
    fn = compile_many(exprs)
    singles = None
    lo = [math.inf] * len(exprs)
    hi = [-math.inf] * len(exprs)
    nan = [False] * len(exprs)
    for x1, x2 in points:
        try:
            row = fn(x1, x2)
        except EVAL_ERRORS:
            if singles is None:
                singles = [compile_expr(e) for e in exprs]
            row = [_value_or_none(f, x1, x2) for f in singles]
        for i, v in enumerate(row):
            if v is None:
                continue
            if v < lo[i]:
                lo[i] = v
            if v > hi[i]:
                hi[i] = v
            if v != v:  # NaN
                nan[i] = True
    ranges = []
    for a, b, saw_nan in zip(lo, hi, nan):
        if saw_nan:
            ranges.append((-math.inf, math.inf))
        elif a > b:
            raise DomainTooSingularError("expression was nowhere evaluable on the sample")
        else:
            ranges.append((a, b))
    return ranges


def _value_or_none(fn, x1: float, x2: float) -> float | None:
    try:
        return fn(x1, x2)
    except EVAL_ERRORS:
        return None
