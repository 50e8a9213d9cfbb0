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
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .expr import (
    EVAL_ERRORS,
    Constant,
    Domain,
    EvaluationError,
    Expr,
    Point,
    Var,
    compile_expr,
    compile_many,
    compile_sweep,
    denominators,
    differentiate,
    evaluate,
    kink_arguments,
)

OVERSAMPLE_FACTOR = 100
# The most points a config may request: a pass draws up to samples *
# OVERSAMPLE_FACTOR candidates, and islice counts only to sys.maxsize.
MAX_SAMPLES = sys.maxsize // OVERSAMPLE_FACTOR


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
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {self.samples}")
        for x in (self.tolerance, self.fd_step, self.fd_tolerance):
            if not (x > 0 and math.isfinite(x)):
                raise ValueError("step and tolerances must be positive and finite")


def _draws(d: Domain, rng: random.Random) -> Iterator[tuple[float, float]]:
    """Uniform (x1, x2) pairs in `d` from `rng`, without end.  Each
    coordinate is lo + (hi - lo)*u, x1 drawn first: bit-identical to
    rng.uniform(*d.x1_range), then the same for x2."""
    u = rng.random
    a1, b1 = d.x1_range
    a2, b2 = d.x2_range
    w1, w2 = b1 - a1, b2 - a2
    while True:
        yield a1 + w1 * u(), a2 + w2 * u()


# The job scope of `sample_points` and `nowhere_zero`: None, or the
# table of what the current job has run.  It maps (domain, samples,
# seed) to {guard key: (guards, points, rejected, end)}, the passes of
# `sample_points`, and (domain, samples, seed, id(e)) to (e, verdict),
# the scans of `nowhere_zero`.  A pass holds its guards and a scan its
# expression, so the ids in their keys stay valid; `rejected` counts
# the candidates a pass drew but did not accept.  A pass that rejected
# nothing holds the stream's prefix, and `end` is the random.Random
# state where the prefix ends; it is None for any other pass.
_STREAM: contextvars.ContextVar[dict | None] = contextvars.ContextVar("ricciplane_job_stream", default=None)


@contextlib.contextmanager
def _job_stream() -> Iterator[None]:
    """Scope in which `sample_points` runs each guard set of a
    (domain, samples, seed) at most once and shares the result, and
    `nowhere_zero` scans each expression of one at most once.  The
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
) -> list[tuple[float, float]]:
    """Seeded uniform points (x1, x2), plain float pairs, in `d` at which
    every guard expression has magnitude >= d.guard.

    Candidates are drawn one at a time from random.Random(cfg.seed), so
    the accepted list is a pure function of (d, cfg.samples, cfg.seed)
    and the set of guards.  Gives up after 100x oversampling; fewer than
    half the requested points is a DomainTooSingularError.

    Within a `_job_stream` scope (each CLI job runs in one), a guard
    set is sampled once and its list is returned again to later calls.
    A stored pass that rejected nothing holds the first `samples`
    candidates of the stream, the prefix, and clears its guards there,
    as a passing `nowhere_zero` scan clears its expression.  A set of
    cleared guards is served the prefix without running a kernel; a new
    pass reads it in place of drawing it, and draws on from where it
    ends.  A pass that drew the prefix itself and rejected some of it
    stores it as the guard-less pass.
    Sets are keyed by node identity, not equality: Constant(0.0) ==
    Constant(-0.0), but they can evaluate differently.  Outside a scope
    every call samples afresh and returns the same points.  The
    returned list may be shared: callers must not mutate it.
    """
    table = _STREAM.get()
    table = {} if table is None else table
    stream = (d, cfg.samples, cfg.seed)
    passes = table.setdefault(stream, {})
    guards = tuple(guards)
    key = frozenset(map(id, guards))
    done = passes.get(key)
    if done is not None:
        return done[1]
    whole = [(k, p) for k, p in passes.items() if p[2] == 0]
    # A non-rejecting pass or a passing scan shows that its guards do not
    # raise and have |v| >= guard at every prefix candidate; `compile_many`
    # values are bit-identical per expression, and a fused kernel raises
    # only where one of its expressions does.
    cleared = set().union(*(k for k, _ in whole))
    cleared.update(k[3] for k, scan in table.items() if len(k) == 4 and k[:3] == stream and scan[1][0])
    if whole and key <= cleared:
        return whole[0][1][1]
    done, head = _draw_pass(d, cfg, guards, whole[0][1] if whole else None)
    passes[key] = done
    if head is not None:
        passes[frozenset()] = head
    return done[1]


def _draw_pass(
    d: Domain,
    cfg: SamplingConfig,
    guards: tuple[Expr, ...],
    whole: tuple | None,
) -> tuple[tuple, tuple | None]:
    """(guards, accepted points, rejected count, end) of one pass, and
    the guard-less pass if this one drew the stream's prefix, its first
    `samples` candidates, itself and rejected some of it, else None.
    `whole` is None or a stored pass that rejected nothing: its points
    are the prefix, read in place of drawing them, and `_draws` resumes
    at its `end`, on the first request past the prefix."""
    rng = random.Random(cfg.seed)
    if whole is None:
        draws = _draws(d, rng)
        prefix, end = list(islice(draws, cfg.samples)), rng.getstate()
    else:
        _, prefix, _, end = whole

        def resumed():  # a generator, so `_draws` starts on the first request
            rng.setstate(end)
            yield from _draws(d, rng)

        draws = resumed()
    if not guards:
        return (guards, prefix, 0, end), None
    guard_values = compile_many(guards)
    guard = d.guard
    points: list[tuple[float, float]] = []
    rejected = 0
    for p in chain(prefix, islice(draws, cfg.samples * (OVERSAMPLE_FACTOR - 1))):
        x1, x2 = p
        try:
            values = guard_values(x1, x2)
        except EVAL_ERRORS:
            values = (0.0,)  # undefined: rejected like a zero (d.guard > 0)
        for v in values:
            if abs(v) < guard:
                rejected += 1
                break
        else:
            points.append(p)
            if len(points) == cfg.samples:
                break
    if len(points) < _enough(cfg.samples):
        raise DomainTooSingularError(
            f"accepted {len(points)} of {cfg.samples} requested points "
            f"after {OVERSAMPLE_FACTOR}x oversampling"
        )
    if not rejected:
        return (guards, points, 0, end), None
    return (guards, points, rejected, None), ((), prefix, 0, end) if whole is None else None


def _enough(samples: int) -> int:
    """The fewest usable points a sampled verdict accepts: half of
    `samples`, rounded up, and at least one."""
    return max(1, -(-samples // 2))


def merge_guards(guards: Iterable[Expr], exprs: Iterable[Expr]) -> list[Expr]:
    """The guards, then each denominator of `exprs` not already listed:
    every subexpression that must stay away from zero at a sample point
    where `exprs` are evaluated.  Deduplicated structurally, in
    first-occurrence order; one walk of the DAG under all of `exprs`."""
    return list(dict.fromkeys([*guards, *denominators(*exprs)]))


_SIGN_CHANGE = "sign change detected (zero crossing on the domain)"


def nowhere_zero(e: Expr, d: Domain, cfg: SamplingConfig) -> tuple[bool, str]:
    """Sample-check the 'nowhere zero on the domain' hypothesis.

    At the points of the guard-less pass of `sample_points`, the first
    `samples` candidates of the seeded stream, every e(p) must be
    finite, |e(p)| must clear d.guard and the sign must be constant.  A
    strict sign change witnesses a zero crossing that pointwise
    magnitudes alone cannot see; a NaN has no sign and is never near
    zero, so it is rejected on its own.

    Within a `_job_stream` scope, each (expression, domain, samples,
    seed) is scanned once and its verdict returned again to later calls.
    """
    table = _STREAM.get()
    table = {} if table is None else table
    key = (d, cfg.samples, cfg.seed, id(e))
    if key not in table:
        table[key] = (e, _scan_nowhere_zero(e, d, cfg))
    return table[key][1]


def _scan_nowhere_zero(e: Expr, d: Domain, cfg: SamplingConfig) -> tuple[bool, str]:
    fn = compile_expr(e)
    guard, inf = d.guard, math.inf
    saw_pos = saw_neg = False
    for x1, x2 in sample_points(d, cfg):
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
    x1, x2 = p
    try:
        if v is Var.X1:
            hi, lo = evaluate(e, Point(x1 + h, x2)), evaluate(e, Point(x1 + -h, x2))
        else:
            hi, lo = evaluate(e, Point(x1, x2 + h)), evaluate(e, Point(x1, x2 + -h))
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
    points: Sequence[tuple[float, float]],
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


def _lenient(exprs: Sequence[Expr]) -> Callable[[float, float], Sequence[float | None]]:
    """A callable (x1, x2) -> the values of `exprs`, with None for each
    expression undefined there.  One fused kernel; at a point where it
    raises, `_one_by_one` of the expressions."""
    fused = compile_many(exprs)
    singles = _one_by_one(exprs)

    def evaluate_all(x1: float, x2: float):
        try:
            return fused(x1, x2)
        except EVAL_ERRORS:
            return singles(x1, x2)

    return evaluate_all


def _one_by_one(exprs: Sequence[Expr]) -> Callable[[float, float], list[float | None]]:
    """A callable (x1, x2) -> the values of `exprs`, each from its own
    kernel (compiled on first call), with None for each expression
    undefined there: the fallback of a sweep at a point where its fused
    kernel raised."""
    kernels: list = []

    def evaluate_each(x1: float, x2: float):
        if not kernels:
            kernels.extend(map(compile_expr, exprs))
        row = []
        for f in kernels:
            try:
                row.append(f(x1, x2))
            except EVAL_ERRORS:
                row.append(None)
        return row

    return evaluate_each


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
    points: Sequence[tuple[float, float]],
) -> tuple[list[float], int] | list[tuple[list[float], int]]:
    """Max |value| of each expression over the points.

    A sequence of Expr is one group and gives (maxima, points used); a
    sequence of groups gives one such pair per group, in order.  Points
    where any expression of a group is undefined are dropped for the
    whole group, keeping its maxima comparable; other groups keep them.
    A NaN or infinite value at a used point makes that maximum math.inf.

    One `_extrema` sweep folds every group's values into their (lo, hi,
    saw_nan), and a group is dropped only where one of its own
    expressions is undefined: that is exactly where a kernel of the
    group alone would raise.  A maximum is math.inf after a NaN, else
    max(|lo|, |hi|), or 0.0 where no value was folded.  A Constant is
    left out of the sweep: its maximum is read once, or stays 0.0 in a
    group that used no point.
    """
    if all(isinstance(e, Expr) for e in exprs):
        return sampled_max_abs([exprs], points)[0]
    flat: list[Expr] = []
    spans = []  # where each group's non-constant expressions sit in `flat`
    for g in exprs:
        start = len(flat)
        flat.extend(e for e in g if not isinstance(e, Constant))
        spans.append((start, len(flat)))
    extrema, drops = _extrema(flat, spans, points)
    # max |v| over a set is max(|min|, |max|), and abs is exact.
    live = iter([math.inf if nan else max(abs(lo), abs(hi)) if lo <= hi else 0.0 for lo, hi, nan in extrema])
    # A constant never raises and has one value at every point.
    return [
        ([_const_max(e.value, used) if isinstance(e, Constant) else next(live) for e in g], used)
        for g, used in zip(exprs, [len(points) - k for k in drops])
    ]


def _extrema(
    exprs: Sequence[Expr],
    spans: Sequence[tuple[int, int]],
    points: Sequence[tuple[float, float]],
) -> tuple[list, list[int]]:
    """The (lo, hi, saw_nan) of each expression over `points` (see
    `compile_sweep`), and the number of points each span of `exprs`
    dropped.  Where the sweep kernel raises, `_one_by_one` evaluates
    the point: a span with an undefined expression drops it, the others
    fold their values, and the kernel resumes the same iterator, so the
    points fold in stream order and a signed-zero bound keeps its bits."""
    drops = [0] * len(spans)
    if not exprs:
        return [], drops
    sweep, singles, stream = compile_sweep(exprs), _one_by_one(exprs), iter(points)
    state, raised = sweep(stream, [math.inf, -math.inf, False] * len(exprs))
    while raised is not None:
        row = singles(*raised)
        for k, (start, stop) in enumerate(spans):
            if None in row[start:stop]:
                drops[k] += 1
                continue
            for i in range(3 * start, 3 * stop, 3):  # the kernel's fold, at one point
                v, (lo, hi, nan) = row[i // 3], state[i : i + 3]
                state[i : i + 3] = v if v < lo else lo, v if v > hi else hi, nan or v != v
        state, raised = sweep(stream, state)
    return list(zip(state[::3], state[1::3], state[2::3])), drops


def _const_max(c: float, used: int) -> float:
    """The `sampled_max_abs` maximum of the constant c over `used` points."""
    return 0.0 if not used else math.inf if c != c else abs(c)


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
    collected: list[tuple[Sequence[Expr], list[tuple[float, float]]]] = []
    try:
        for group in groups:
            collected.append((group, sample_points(d, cfg, merge_guards(guards, group))))
    except Exception:
        _checked_sweeps(collected, cfg, what)
        raise
    return _checked_sweeps(collected, cfg, what)


def _checked_sweeps(
    collected: list[tuple[Sequence[Expr], list[tuple[float, float]]]],
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


def _per_point_list(collected: list[tuple[object, list[tuple[float, float]]]], sweep: Callable) -> list:
    """`sweep(items, points)` once per distinct point list (by identity)
    over the items sampled to it; the results in the order of
    `collected`."""
    sweeps: dict[int, tuple[list[tuple[float, float]], list[int]]] = {}
    for k, (_, points) in enumerate(collected):
        sweeps.setdefault(id(points), (points, []))[1].append(k)
    results: list = [None] * len(collected)
    for points, members in sweeps.values():
        for k, result in zip(members, sweep([collected[k][0] for k in members], points)):
            results[k] = result
    return results


def sampled_range(
    exprs: Expr | Sequence[Expr],
    points: Sequence[tuple[float, float]],
) -> tuple[float, float] | list[tuple[float, float]]:
    """(min, max) of each expression over the points where it is
    evaluable; a NaN value at such a point makes its range
    (-math.inf, math.inf).  A lone Expr gives one pair, a sequence a
    list of pairs, in order.

    One `_extrema` sweep folds every expression's values, and an
    expression is skipped only where it is undefined itself.  Raises
    DomainTooSingularError when an expression is nowhere evaluable.  A
    Constant c is left out of the sweep: it is evaluable at every point,
    and its range is (c, c).
    """
    if isinstance(exprs, Expr):
        return sampled_range([exprs], points)[0]
    live = [e for e in exprs if not isinstance(e, Constant)]
    bounds = iter(_extrema(live, [(i, i + 1) for i in range(len(live))], points)[0])
    ranges = []
    for e in exprs:
        # A constant never raises and has one value at every point.
        a, b, saw_nan = (e.value, e.value, e.value != e.value) if isinstance(e, Constant) else next(bounds)
        if saw_nan and points:
            ranges.append((-math.inf, math.inf))
        elif a > b or not points:
            raise DomainTooSingularError("expression was nowhere evaluable on the sample")
        else:
            ranges.append((a, b))
    return ranges
