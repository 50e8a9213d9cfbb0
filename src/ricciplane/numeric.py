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
    Expr,
    Var,
    compile_expr,
    compile_many,
    compile_sweep,
    denominators,
    differentiate,
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


class _Stream:
    """A job's record of one (domain, samples, seed) stream.  `prefix` is
    its first `samples` candidates, drawn once, and `end` the
    random.Random state after them.  `passes` maps a guard key to
    (guards, points) and `swept` an expression id to (expression,
    (lo, hi, saw_nan), used), its `_extrema` state over the prefix as a
    group of its own; each entry holds its own nodes, so the ids there
    and in `cleared` stay valid.  `cleared` holds the ids of the guards
    that accept every prefix candidate: each is defined there with
    |v| >= guard or NaN (see `_sweep_prefix`).  `compile_many` values
    are bit-identical per expression, and a fused kernel raises only
    where one of its expressions does, so a set of cleared guards
    accepts the whole prefix."""

    __slots__ = ("prefix", "end", "cleared", "passes", "swept")

    def __init__(self, d: Domain, cfg: SamplingConfig):
        rng = random.Random(cfg.seed)
        self.prefix = list(islice(_draws(d, rng), cfg.samples))
        self.end = rng.getstate()
        self.cleared, self.passes, self.swept = set(), {}, {}


# The job scope of `sample_points` and `nowhere_zero`: None, or the
# current job's table from (domain, samples, seed) to its `_Stream`.
_STREAM: contextvars.ContextVar[dict | None] = contextvars.ContextVar("ricciplane_job_stream", default=None)


@contextlib.contextmanager
def _job_stream() -> Iterator[None]:
    """Scope in which `sample_points` runs each guard set of a
    (domain, samples, seed) at most once and shares the result, and
    each expression is swept over its prefix at most once.  The
    scope belongs to the current context, so each thread has its own;
    it ends, and its table is dropped, on every exit path."""
    token = _STREAM.set({})
    try:
        yield
    finally:
        _STREAM.reset(token)


def _stream(d: Domain, cfg: SamplingConfig) -> _Stream:
    """The current job's record of the stream of (d, cfg.samples,
    cfg.seed), or a fresh one outside a `_job_stream` scope."""
    table = _STREAM.get()
    if table is None:
        return _Stream(d, cfg)
    key = (d, cfg.samples, cfg.seed)
    return table.get(key) or table.setdefault(key, _Stream(d, cfg))


def _scoped_stream(d: Domain, cfg: SamplingConfig) -> _Stream | None:
    """The current job's record of the stream of (d, cfg), or None."""
    return (_STREAM.get() or {}).get((d, cfg.samples, cfg.seed))


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

    A set of cleared guards (see `_Stream`), the empty set among them,
    is served the stream's prefix without running a kernel.  Any other
    set first sweeps its uncleared guards over the prefix, and each that
    clears is cleared (its sweep state holds its node).  A set still not
    cleared runs one pass, stored in the job's record within a
    `_job_stream` scope (each CLI job runs in one) and returned again to
    later calls.  A pass that rejected nothing returns the prefix and
    clears its guards.  Sets are keyed by node identity, not equality:
    Constant(0.0) == Constant(-0.0), but they can evaluate differently.
    Outside a scope every call samples afresh and returns the same
    points.  The returned list may be shared: callers must not mutate it.
    """
    s = _stream(d, cfg)
    guards = tuple(guards)
    key = frozenset(map(id, guards))
    if not key <= s.cleared and key not in s.passes:
        todo = list({id(g): g for g in guards if id(g) not in s.cleared}.values())
        s.cleared.update(id(g) for g, (_, clears) in zip(todo, _sweep_prefix(todo, s, d.guard)) if clears)
        if not key <= s.cleared:
            s.passes[key] = (guards, _draw_pass(d, cfg, guards, s))
            if s.passes[key][1] is s.prefix:
                s.cleared |= key
    # A stored pass that rejected a prefix candidate has a guard that is never cleared.
    return s.prefix if key <= s.cleared else s.passes[key][1]


def _draw_pass(d: Domain, cfg: SamplingConfig, guards: tuple[Expr, ...], s: _Stream) -> list[tuple[float, float]]:
    """The first `samples` candidates of the stream at which every
    guard is defined with |v| >= d.guard, in stream order: `s.prefix`
    itself if the pass rejected none of it.  The prefix is read from
    `s`, and the candidates past it are drawn on from `s.end`."""
    rng = random.Random(cfg.seed)
    rng.setstate(s.end)
    guard_values = compile_many(guards)
    guard = d.guard
    points: list[tuple[float, float]] = []
    for p in chain(s.prefix, islice(_draws(d, rng), cfg.samples * (OVERSAMPLE_FACTOR - 1))):
        x1, x2 = p
        try:
            values = guard_values(x1, x2)
        except EVAL_ERRORS:
            values = (0.0,)  # undefined: rejected like a zero (d.guard > 0)
        for v in values:
            if abs(v) < guard:
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
    # Points are accepted in stream order: the last of `samples` is the
    # prefix's last only if no prefix candidate was rejected.
    return s.prefix if len(points) == cfg.samples and points[-1] is s.prefix[-1] else points


def _sweep_prefix(exprs: Sequence[Expr], s: _Stream, guard: float) -> list[tuple[tuple[float, float, bool], bool]]:
    """Per expression, its (lo, hi, saw_nan) over `s.prefix` as recorded,
    those not in `s.swept` from one `_extrema` sweep, and whether it
    clears as a guard: defined at every candidate, and NaN aside
    (`_draw_pass` accepts a NaN) on one side of (-guard, guard)."""
    todo = [[e] for e in {id(e): e for e in exprs if id(e) not in s.swept}.values()]
    if todo:
        s.swept.update((id(e), (e, state, used)) for [e], ([state], used) in zip(todo, _extrema(todo, s.prefix)))
    n = len(s.prefix)
    return [
        (state, used == n and (state[0] >= guard or state[1] <= -guard))
        for _, state, used in (s.swept[id(e)] for e in exprs)
    ]


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

    At the stream's prefix, its first `samples` candidates (the points
    of the guard-less `sample_points`), every e(p) must be finite, |e(p)|
    must clear d.guard and the sign must be constant.  A strict sign
    change witnesses a zero crossing that pointwise magnitudes alone
    cannot see; a NaN has no sign and is never near zero, so it is
    rejected on its own.

    It passes iff e clears as a guard (`_sweep_prefix`) with no NaN and
    a finite range; only a failure runs the per-point scan, for its
    message.  Within a `_job_stream` scope, each (expression, domain,
    samples, seed) is swept once (`_Stream.swept`); a pass clears it.
    """
    s = _stream(d, cfg)
    [((lo, hi, nan), clears)] = _sweep_prefix([e], s, d.guard)
    if not (clears and not nan and -math.inf < lo <= hi < math.inf):
        return _scan_nowhere_zero(e, s.prefix, d.guard)
    s.cleared.add(id(e))
    return True, ""


def _scan_nowhere_zero(e: Expr, points: Sequence[tuple[float, float]], guard: float) -> tuple[bool, str]:
    fn = compile_expr(e)
    inf = math.inf
    saw_pos = saw_neg = False
    for x1, x2 in points:
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


@dataclass(frozen=True)
class FdValidation:
    """Outcome of comparing symbolic partials against central differences."""

    max_rel_error: float
    points_used: int
    points_skipped: int


def fd_validate(
    exprs: Sequence[Expr],
    d: Domain,
    cfg: SamplingConfig,
    guards: Sequence[Expr] = (),
) -> list[FdValidation]:
    """One FdValidation per expression, in order: the max over sampled
    points and both variables of |symbolic - fd| / (1 + |symbolic|).

    Each expression is sampled at the points that clear the guards and
    its own denominators.  Point/variable pairs where the stencil
    straddles an abs/sign kink of the expression, or where either side
    is undefined, are skipped and counted.  A NaN deviation (say, both
    sides non-finite) makes the maximum math.inf.

    Each expression is sampled, then differentiated, before the next,
    so errors surface as if the expressions were validated one at a
    time.  Expressions sampled to the same list (the job scope of
    `sample_points` makes that the usual case) share one sweep.
    """
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
    kernel raised, and the cells of `cli.emit_grid`."""
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
    groups: Sequence[Sequence[Expr]],
    points: Sequence[tuple[float, float]],
) -> list[tuple[list[float], int]]:
    """Max |value| of each expression of each group over the points:
    one (maxima, points used) per group, in order.  Points where any
    expression of a group is undefined are dropped for the whole group,
    keeping its maxima comparable; other groups keep them.  A NaN or
    infinite value at a used point makes that maximum math.inf.

    The maxima are read from one `_extrema` sweep: math.inf after a NaN,
    else max(|lo|, |hi|), or 0.0 where no value was folded.
    """
    return [(_maxima(states), used) for states, used in _extrema(groups, points)]


def _maxima(states: list[tuple[float, float, bool]]) -> list[float]:
    # max |v| over a set is max(|min|, |max|), and abs is exact.
    return [math.inf if nan else max(abs(lo), abs(hi)) if lo <= hi else 0.0 for lo, hi, nan in states]


def _extrema(
    groups: Sequence[Sequence[Expr]],
    points: Sequence[tuple[float, float]],
) -> list[tuple[list[tuple[float, float, bool]], int]]:
    """Per group, the (lo, hi, saw_nan) of each of its expressions over
    the points it used (see `compile_sweep`), and the number it used.

    One sweep kernel folds every non-constant expression.  Where it
    raises, `_one_by_one` evaluates the point: a group with an undefined
    expression drops it, the others fold their values, and the kernel
    resumes the same iterator, so the points fold in stream order and a
    signed-zero bound keeps its bits.  A Constant c never raises and has
    one value at every point, so it is left out of the sweep: its state
    is (c, c, c != c) in a group that used a point, else that of no
    value, (math.inf, -math.inf, False).
    """
    flat: list[Expr] = []
    spans = []  # where each group's non-constant expressions sit in `flat`
    for g in groups:
        start = len(flat)
        flat.extend(e for e in g if not isinstance(e, Constant))
        spans.append((start, len(flat)))
    drops = [0] * len(spans)
    state = [math.inf, -math.inf, False] * len(flat)
    if flat:
        sweep, singles, stream = compile_sweep(flat), _one_by_one(flat), iter(points)
        state, raised = sweep(stream, state)
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
    live, unused = zip(state[::3], state[1::3], state[2::3]), (math.inf, -math.inf, False)
    return [
        ([next(live) if not isinstance(e, Constant) else (e.value, e.value, e.value != e.value) if used else unused
          for e in g], used)
        for g, used in zip(groups, [len(points) - k for k in drops])
    ]


def covered_sweep(
    groups: Iterable[Sequence[Expr]],
    ranged: Sequence[Expr],
    d: Domain,
    cfg: SamplingConfig,
    guards: Iterable[Expr],
    what: str,
    late: Iterable[Sequence[Expr]] = (),
) -> tuple[list[tuple[list[float], int]], list[tuple[float, float]]]:
    """`sampled_max_abs` of each group over the points of `d` that clear
    the guards and that group's denominators, one (maxima, points used)
    per group; and `sampled_range` of each `ranged` expression, sampled
    after the groups.  Raises DomainTooSingularError, naming the
    expressions as `what`, when a group was evaluable at fewer than half
    the requested points.  `groups` may be lazy: errors surface as if
    each group were built, sampled and checked in turn, so when building
    or sampling one raises, a shortfall of an earlier group is raised
    instead, and the errors of `ranged` come after every shortfall.
    Groups sampled to one list (the job scope of `sample_points` makes
    that usual) share one sweep, each `ranged` expression its own group
    (recorded in `_Stream.swept` if swept over the job's prefix).
    `late` groups, lazy too, are built and sampled after `ranged` and
    swept with the rest, but never checked: their (maxima, used) follow
    the groups', unless building or sampling one raised, which leaves
    every late group out (sampled again on their own, they raise again).
    """
    guards = tuple(guards)
    collected: list[tuple[Sequence[Expr], list[tuple[float, float]]]] = []
    try:
        for group in groups:
            collected.append((group, sample_points(d, cfg, merge_guards(guards, group))))
        n = len(collected)
        if ranged:
            points = sample_points(d, cfg, merge_guards(guards, ranged))
            collected += [([e], points) for e in ranged]
    except Exception:
        _checked_sweeps(collected, len(collected), cfg, what)
        raise
    k = len(collected)
    try:
        for group in late:
            collected.append((group, sample_points(d, cfg, merge_guards(guards, group))))
    except Exception:  # whatever it is, the caller's own phase raises it again
        del collected[k:]
    results = _checked_sweeps(collected, n, cfg, what)
    s = _scoped_stream(d, cfg) if ranged else None
    if s is not None and points is s.prefix:
        s.swept.update((id(e), (e, state, used)) for e, ([state], used) in zip(ranged, results[n:k]))
    return [(_maxima(states), used) for states, used in results[:n] + results[k:]], _ranges(results[n:k])


def _checked_sweeps(
    collected: list[tuple[Sequence[Expr], list[tuple[float, float]]]],
    n: int,
    cfg: SamplingConfig,
    what: str,
) -> list[tuple[list[tuple[float, float, bool]], int]]:
    """One `_extrema` sweep per distinct point list, then the first
    shortfall of the first n groups, in order."""
    results = _per_point_list(collected, _extrema)
    _check_shortfall(results[:n], cfg, what)
    return results


def _check_shortfall(results: Iterable[tuple[object, int]], cfg: SamplingConfig, what: str) -> None:
    """Raise the first shortfall of (..., points used) results, in order."""
    for _, used in results:
        if used < _enough(cfg.samples):
            raise DomainTooSingularError(
                f"{what} were evaluable at only {used} of {cfg.samples} requested points"
            )


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
    exprs: Sequence[Expr],
    points: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """(min, max) of each expression over the points where it is
    evaluable, in order; a NaN value at such a point makes its range
    (-math.inf, math.inf).  One `_extrema` sweep, each expression its
    own group, so an expression is skipped only where it is undefined
    itself.  Raises DomainTooSingularError when an expression is nowhere
    evaluable.
    """
    return _ranges(_extrema([[e] for e in exprs], points))


def _ranges(results: list[tuple[list[tuple[float, float, bool]], int]]) -> list[tuple[float, float]]:
    ranges = []
    for [(a, b, saw_nan)], _ in results:
        if saw_nan:
            ranges.append((-math.inf, math.inf))
        elif a > b:
            raise DomainTooSingularError("expression was nowhere evaluable on the sample")
        else:
            ranges.append((a, b))
    return ranges
