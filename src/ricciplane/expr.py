"""Symbolic expressions in the plane coordinates x1, x2.

Immutable expression trees, interned so that equal subtrees are one
node, with light simplification, exact differentiation that builds the
simplified derivative in one pass, deterministic evaluation by generated
Python kernels, and a seeded probabilistic identically-zero test.
These trees are the single currency passed between all other modules.
The job record here (`_STREAM`) is the home of every per-job memo.
"""

from __future__ import annotations

import array
import collections
import contextlib
import contextvars
import functools
import itertools
import math
import operator
import re
import types
import weakref
from collections.abc import Callable, Iterator, Sequence
from enum import Enum

TYPE_CHECKING = False  # type checkers read it as True; `typing` costs every process its import
if TYPE_CHECKING:
    from .numeric import SamplingConfig


class Var(Enum):
    X1 = "x1"
    X2 = "x2"


class Domain(collections.namedtuple("Domain", "x1_range x2_range guard", defaults=((-1.0, 1.0), (-1.0, 1.0), 1e-6))):
    """A sampling rectangle, (lo, hi) per coordinate; guard is the smallest
    |value| a denominator root factor may take at an accepted sample point."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for lo, hi in (self.x1_range, self.x2_range):
            if not lo < hi:
                raise ValueError(f"empty coordinate range [{lo}, {hi}]")
            # The sampler draws lo + (hi - lo) * u, which must stay finite.
            if not math.isfinite(hi - lo):
                raise ValueError(f"coordinate range [{lo}, {hi}] must be finite")
        if not (self.guard > 0 and math.isfinite(self.guard)):
            raise ValueError("guard must be positive and finite")
        return self


class ParseError(ValueError):
    """Syntax or unknown-identifier error, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """An expression is undefined at the requested point."""


# Exceptions a compiled expression may raise on a bad point: kernels do
# not wrap the builtin arithmetic errors in an EvaluationError.
EVAL_ERRORS = (EvaluationError, ZeroDivisionError, ValueError, OverflowError)


# The intern table: one live node per structure.  Keys are the node
# class and its children themselves (nodes compare by identity); a
# Constant is keyed on the bits of its float, so -0.0 and 0.0 stay
# distinct and every NaN maps to one node.  An entry dies with its node:
# the weakref's callback is a functools.partial of the table's pop, so
# no Python code runs.
_INTERNED: dict[tuple, weakref.ref] = {}
_forget = _INTERNED.pop
_next_serial = itertools.count().__next__


def _live(key: tuple) -> "Expr | None":
    """The live node entered under `key`, or None."""
    ref = _INTERNED.get(key)
    return None if ref is None else ref()


def _interned(node: "Expr", key: tuple) -> "Expr":
    """Finish a new node (its fields already set) and enter it in the
    table; the node a racing thread entered first wins.  A losing `ref`
    dies before its node, which the caller holds, so its callback never
    runs."""
    node._serial = _next_serial()
    ref = weakref.ref(node, functools.partial(_forget, key))
    return _INTERNED.setdefault(key, ref)() or node


# The job scope of sampling and of the memos: None, or the current job's
# record, a defaultdict(dict) of one memo per owner: `simplify`,
# `(differentiate, v)`, each `_once_per_job` query and `numeric._recorded`.
_STREAM: contextvars.ContextVar[dict | None] = contextvars.ContextVar("ricciplane_job_stream", default=None)


@contextlib.contextmanager
def _job_stream() -> Iterator[None]:
    """Scope of one job, in which `numeric.sample_points` runs each guard
    set of a (domain, samples, seed) at most once, each group of
    expressions is swept over a point list at most once, and each query
    kept in a job memo is answered at most once per node or arguments.
    The scope belongs to the current context, so each thread has its
    own; it ends, and its record is dropped, on every exit path."""
    token = _STREAM.set(collections.defaultdict(dict))
    try:
        yield
    finally:
        _STREAM.reset(token)


def _once_per_job(query: Callable, *args):
    """`query(*args)`, a pure query of interned nodes or the record of a
    `numeric._Stream`, answered once per job within a `_job_stream` scope
    and returned again to later calls (callers must not mutate a query's
    answer, and a None answer is not kept); computed afresh on every
    call outside one."""
    if (job := _STREAM.get()) is None:
        return query(*args)
    memo = job[query]
    if (answer := memo.get(args)) is None:
        answer = memo[args] = query(*args)
    return answer


class Expr:
    """Base class for all nodes.

    Nodes are hash-consed: constructing a node returns the live node of
    that structure when there is one, so equal trees share their
    subtrees, a tree is a DAG of distinct nodes, and two nodes are the
    same tree iff they are one object.  Nodes compare and hash by
    identity.  Fields are plain slots and must never be assigned after
    construction: every tree that shares a node would change with it.
    A node refers only to its children, so nodes form no reference
    cycles and die with the last tree that uses them; the memos of a
    job (`_STREAM`) keep the nodes they hold alive until the job ends.

    Thread safety: the table takes no lock.  Two threads racing to build
    the same new node can each create one, but one `dict.setdefault`
    enters the first and both get it.  The job scope belongs to the
    current context, so threads share no memo.
    """

    __slots__ = ("_serial", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, other):
        return Pow(self, as_expr(other))

    def __neg__(self):
        return Negate(self)

    def __str__(self):
        return to_string(self)

    def children(self) -> tuple["Expr", ...]:
        return ()


class Constant(Expr):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        key = (cls, value.hex())
        if (node := _live(key)) is not None:
            return node
        node = object.__new__(cls)
        node.value = value
        return _interned(node, key)


class Variable(Expr):
    __slots__ = ("var",)
    __match_args__ = ("var",)

    def __new__(cls, var: Var):
        key = (cls, var)
        if (node := _live(key)) is not None:
            return node
        node = object.__new__(cls)
        node.var = var
        return _interned(node, key)


class Negate(Expr):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __new__(cls, arg: Expr):
        key = (cls, arg)
        if (node := _live(key)) is not None:
            return node
        node = object.__new__(cls)
        node.arg = arg
        return _interned(node, key)

    def children(self):
        return (self.arg,)


class _Binary(Expr):
    """A node with two children, in the slots `lhs` and `rhs`."""

    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")

    def __new__(cls, lhs: Expr, rhs: Expr):
        key = (cls, lhs, rhs)
        if (node := _live(key)) is not None:
            return node
        node = object.__new__(cls)
        node.lhs = lhs
        node.rhs = rhs
        return _interned(node, key)

    def children(self):
        return (self.lhs, self.rhs)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()
    __match_args__ = ("num", "den")
    # The two slots of _Binary, named after their roles.
    num = _Binary.lhs
    den = _Binary.rhs


class Pow(_Binary):
    __slots__ = ()
    __match_args__ = ("base", "exponent")
    base = _Binary.lhs
    exponent = _Binary.rhs


class Apply(Expr):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        key = (cls, fn, arg)
        if (node := _live(key)) is not None:
            return node
        if fn not in FUNCTIONS:
            raise ValueError(f"unsupported function {fn!r}")
        node = object.__new__(cls)
        node.fn = fn
        node.arg = arg
        return _interned(node, key)

    def children(self):
        return (self.arg,)


X1 = Variable(Var.X1)
X2 = Variable(Var.X2)
ZERO = Constant(0.0)
ONE = Constant(1.0)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def _sign_value(v: float) -> float:
    # sign(0) is left undefined so that the derivative of abs, sign(u)*u',
    # errors exactly on the kink, as its contract requires.
    if v == 0.0:
        raise EvaluationError("sign is undefined at 0")
    return 1.0 if v > 0.0 else -1.0


def _sech_value(v: float) -> float:
    return 1.0 / math.cosh(v)


# The largest |n| that `_int_pow` computes by repeated multiplication,
# one multiplication per unit of n.
_INT_POW_MAX = 1024


def _int_pow(base: float, n: int) -> float:
    """Repeated-multiplication power for integer exponents.  Beyond
    _INT_POW_MAX, math.pow, with an overflow read as the infinity that
    repeated multiplication would reach.  A negative power is 1.0 over
    the positive one, a signed infinity where that underflows to 0."""
    if n < 0:
        if base == 0.0:
            raise EvaluationError("zero raised to a negative power")
        p = _int_pow(base, -n)
        return 1.0 / p if p else math.copysign(math.inf, p)
    if n > _INT_POW_MAX:
        try:
            return math.pow(base, n)
        except OverflowError:
            return -math.inf if base < 0.0 and n % 2 else math.inf
    # The loop acc *= base from acc = 1.0, left to right, in C.
    return math.prod(itertools.repeat(base, n), start=1.0)


def _pow_value(base: float, exponent: float) -> float:
    if float(exponent).is_integer():
        return _int_pow(base, int(exponent))
    if base <= 0.0:
        raise EvaluationError("non-integer power requires a positive base")
    return math.pow(base, exponent)


FUNCTIONS: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sech": _sech_value,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": _sign_value,
}

# The chain rule of each function: the derivative of e = fn(u), given e
# and u simplified and the derivative du, each node built by `_rule`.
CHAIN_RULES: dict[str, Callable[[Expr, Expr, Expr], Expr]] = {
    "exp": lambda e, u, du: _rule(Mul, e, du),
    "log": lambda e, u, du: _rule(Div, du, u),
    "sin": lambda e, u, du: _rule(Mul, _rule(Apply, u, fn="cos"), du),
    "cos": lambda e, u, du: _rule(Negate, _rule(Mul, _rule(Apply, u, fn="sin"), du)),
    "tan": lambda e, u, du: _rule(Mul, _rule(Add, ONE, _rule(Pow, e, Constant(2.0))), du),
    "sinh": lambda e, u, du: _rule(Mul, _rule(Apply, u, fn="cosh"), du),
    "cosh": lambda e, u, du: _rule(Mul, _rule(Apply, u, fn="sinh"), du),
    "tanh": lambda e, u, du: _rule(Mul, _rule(Sub, ONE, _rule(Pow, e, Constant(2.0))), du),
    "sech": lambda e, u, du: _rule(Negate, _rule(Mul, _rule(Mul, e, _rule(Apply, u, fn="tanh")), du)),
    "sqrt": lambda e, u, du: _rule(Div, du, _rule(Mul, Constant(2.0), e)),
    "abs": lambda e, u, du: _rule(Mul, _rule(Apply, u, fn="sign"), du),
    "sign": lambda e, u, du: _rule(Mul, _rule(Mul, ZERO, e), du),
}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_with_scale(e: Expr, p: tuple[float, float]) -> tuple[float, float]:
    """The value of `e` at the point p = (x1, x2), and the local
    magnitude scale: the largest |value| of any node, `e` first, so the
    scale is NaN where the value is.  Both are read from the kernel
    `is_probably_zero` runs, over `_nodes([e])` reversed."""
    row = compile_many(_nodes([e])[::-1])(*p)
    return row[0], max(map(abs, row))


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """Compile `e` to a plain Python callable `(x1, x2) -> float`.

    The generated code computes each node once, after its children, so
    the same tree at the same point always gives the bit-identical
    float, but for the sign and payload of a NaN (CPython's float
    operations on two NaNs pick either).  Undefined points surface as
    one of EVAL_ERRORS without node diagnostics.
    """
    return _generate([e], "single")


def compile_many(exprs: Sequence[Expr]) -> Callable[[float, float], tuple[float, ...]]:
    """Compile `exprs` to one callable `(x1, x2) -> tuple` of their
    values, in order.  Subtrees the expressions share are computed once;
    each value is bit-identical to `compile_expr` of that expression, a
    NaN's sign and payload aside.
    The call raises one of EVAL_ERRORS when any expression is undefined."""
    return _generate(exprs, "many")


def compile_sweep(exprs: Sequence[Expr]) -> Callable[[Iterator[tuple[float, float]], list], tuple[list, tuple | None]]:
    """Compile `exprs` to one callable `(points, state) -> (state,
    raised)` that evaluates them at each point of the iterator `points`,
    each value the one `compile_many` gives, and folds every value into
    `state`: the flat list lo, hi, saw_nan of each expression, in order.
    A NaN sets only its saw_nan.  At the first point where an expression
    is undefined it returns the state before that point and the point,
    leaving the rest of `points` unread; else `raised` is None."""
    return _generate(exprs, "sweep")


def compile_fd(values: Sequence[Expr], slopes: Sequence[Expr], kinks: Sequence[Expr]) -> Callable[
        [Iterator[tuple[float, float]], list, float], tuple[list, tuple | None]]:
    """Compile the central-difference check of `values` against `slopes`
    (each d/dx1, then each d/dx2) to one callable `(points, worst, h) ->
    (worst, raised)`.  At each point of the iterator `points` it runs the
    node code of the slopes there and of the values at (x1 +- h, x2) and
    (x1, x2 +- h), then folds |s - (up - down) / (2h)| / (1 + |s|) of each
    value and direction into its maximum in `worst`, a NaN as math.inf.
    At the first point where a node is undefined, a stencil coordinate is
    not finite, or a `kinks` expression is not strictly one-signed on a
    stencil and its midpoint, it returns the state before that point and
    the point, leaving the rest of `points` unread; else `raised` is None."""
    return _generate((values, slopes, kinks), "fd")


_CODEGEN_NAMESPACE: dict = {"_int_pow": _int_pow, "_pow_value": _pow_value, "_EVAL_ERRORS": EVAL_ERRORS, "_inf": math.inf}
_CODEGEN_NAMESPACE.update((f"_fn_{name}", fn) for name, fn in FUNCTIONS.items())
_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# The binary nodes whose two constant operands `simplify` folds to one constant.
_CONSTANT_FOLDS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
# Kernel shapes kept per process: set-up and five rounds of family draws need 134.
_KERNEL_CACHE_SIZE = 256
# The deepest nesting of inlined operations in a line; CPython refuses 200 parentheses.
_INLINE_DEPTH = 32

# A kernel's shape key is the bytes of an array("i"): the kernel shape,
# the number of constants, the length of each role (the expressions; fd's
# values, slopes and kinks), a reference to each role expression, then
# three words per operation in creation order: its code and operands (an
# `_INT_POW`'s base and exponent, a unary one's operand and 0).  An
# operation is referred to by its position among them, a leaf by `_X1_REF`,
# `_X2_REF` or `_K0_REF - slot` for the parameter `_k{slot}`.
_SHAPES = ("single", "many", "sweep", "fd")
_POW, _ADD, _SUB, _MUL, _DIV, _NEG, _INT_POW = range(7)  # binary up to _DIV; then a code per function
_X1_REF, _X2_REF, _K0_REF = -1, -2, -3
_CODES: dict = {Pow: _POW, Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV, Negate: _NEG}
_CODES.update((fn, _INT_POW + 1 + i) for i, fn in enumerate(FUNCTIONS))
# The code of each operation but `_INT_POW`, from its operands' code.
_FORMATS = {_POW: "_pow_value({}, {})", _NEG: "-{}"}
_FORMATS.update((_CODES[kind], f"{{}} {op} {{}}") for kind, op in _BINARY_OPS.items())
_FORMATS.update((_CODES[fn], f"_fn_{fn}({{}})") for fn in FUNCTIONS)


def _nodes(roots: Sequence[Expr]) -> list[Expr]:
    """Each distinct node under `roots` once, in creation order: a node
    is built after its children, so they come first and a root comes
    after every node under it.  The one node order of the DAG queries."""
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for node in order:
        for child in node.children():
            if child not in seen:
                seen.add(child)
                order.append(child)
    order.sort(key=operator.attrgetter("_serial"))
    return order


def _generate(exprs: Sequence, shape: str) -> Callable:
    """The kernel of `shape` ("single", "many", "sweep" or "fd", as the
    `compile_` functions describe) over `exprs`, fd's (values, slopes,
    kinks).  The kernel cache is keyed on the shape of the DAG: its node
    list (`_nodes`) with no node and no constant value in it.  Every
    constant an operation or a root reads is a parameter `_k{slot}`,
    numbered at its first reference in the operation words, then the
    roots, and bound to the node's own float (its exact bits), so the
    draws of a family with other constants, old or new, share one
    template.  The source is emitted and compiled only on a miss (`_emit`)."""
    roles = exprs if shape == "fd" else (exprs,)
    refs, ops = _Refs(), []  # nodes to references; operation words
    refs.consts = consts = []  # constant values, by slot
    for node in _nodes([e for role in roles for e in role]):
        kind = type(node)
        if kind is Constant:
            continue  # referred to by slot, numbered at its first reference
        if kind is Variable:
            refs[node] = _X1_REF if node.var is Var.X1 else _X2_REF
            continue
        if kind is Apply or kind is Negate:
            ops += (_NEG if kind is Negate else _CODES[node.fn], refs[node.arg], 0)
        elif kind is Pow and type(expo := node.exponent) is Constant and expo.value.is_integer() and abs(expo.value) <= _INT_POW_MAX:
            ops += (_INT_POW, refs[node.base], int(expo.value))
        else:
            ops += (_CODES[kind], refs[node.lhs], refs[node.rhs])
        refs[node] = len(ops) // 3 - 1
    roots = [refs[e] for role in roles for e in role]
    template = _template(array.array("i", [_SHAPES.index(shape), len(consts), *map(len, roles), *roots, *ops]).tobytes())
    if not consts:
        return template
    # The shared template is never mutated: a new function binds the constants.
    return types.FunctionType(template.__code__, template.__globals__, "_compiled", tuple(consts))


class _Refs(dict):
    """`_generate`'s references of nodes: a constant's is `_K0_REF - slot`,
    its slot numbered at its first reference and its value put in `consts`."""

    def __missing__(self, node: Constant) -> int:
        ref = self[node] = _K0_REF - len(self.consts)
        self.consts.append(node.value)
        return ref


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _template(key: bytes) -> Callable:
    """The function `_compiled` of the kernel shape `key`.  The cache
    holds no expression node, no constant value and no source."""
    namespace = dict(_CODEGEN_NAMESPACE)
    exec(compile(_emit(key), "<compiled-expr>", "exec"), namespace)
    # Taken out of its own globals, the function forms no reference cycle.
    return namespace.pop("_compiled")


def _emit(key: bytes) -> str:
    """The source of the kernel shape `key`.  Each operation is emitted
    once per copy of the node code, in creation order.  One that is no
    output and is read by one operand of the code is inlined there, in
    parentheses, up to `_INLINE_DEPTH` deep; any other gets one local,
    shared by every operation whose code reads the same (`Pow(t, 0.0)`
    and `Pow(t, -0.0)`, or in fd a later copy of a node).  Operands stay
    the same, so values keep their bits, and a point's node code all runs
    before any fold, so a raise in it is a raise of the point.  An fd
    kernel inlines nothing."""
    words = array.array("i", key).tolist()
    shape = _SHAPES[words[0]]
    bounds = list(itertools.accumulate(words[2 : 5 if shape == "fd" else 3], initial=5 if shape == "fd" else 3))
    roles = [words[a:b] for a, b in zip(bounds, bounds[1:])]
    ops = list(zip(*[iter(words[bounds[-1] :])] * 3))
    leaves = {_K0_REF - slot: f"_k{slot}" for slot in range(words[1])}
    inline, outputs = shape != "fd", {i for role in roles for i in role}
    reads = collections.Counter(  # how many operands of the code read each operation
        r for code, a, b in ops for r in ((a,) * b if code == _INT_POW and 1 <= b <= 8 else (a, b) if code <= _DIV else (a,)))
    reused, lines = {}, []  # the local of each code text; the lines of node code
    pad = " " * (4 if shape in ("single", "many") else 12)

    def emit(roots: list[int], x1: str = "x1", x2: str = "x2") -> dict[int, str]:
        # One copy of the node code under `roots`, at the point (x1, x2) named here.
        under = set(roots)
        for i in range(len(ops) - 1, -1, -1):
            if i in under:
                under.update(ops[i][1:] if ops[i][0] <= _DIV else ops[i][1:2])
        names, depth = {_X1_REF: x1, _X2_REF: x2, **leaves}, {}
        for i in sorted(i for i in under if i >= 0):
            code, a, b = ops[i]
            if code == _INT_POW:
                # _int_pow's (1.0*b)*b*... with 1.0*b == b exactly, so bit-identical.
                text = "*".join([names[a]] * b) if 1 <= b <= 8 else f"_int_pow({names[a]}, {b})"
            else:
                text = _FORMATS[code].format(names[a], names[b] if code <= _DIV else "")
            d = 1 + max(depth.get(a, 0), depth.get(b, 0) if code <= _DIV else 0)
            if inline and reads[i] == 1 and i not in outputs and d <= _INLINE_DEPTH:
                names[i], depth[i] = f"({text})", d
                continue
            if text not in reused:
                reused[text] = f"t{len(lines)}"
                lines.append(f"{pad}{reused[text]} = {text}\n")
            names[i] = reused[text]
        return names

    if shape == "fd":
        values, slopes, kinks = roles
        n, at = len(values), (("_a1", "x2"), ("_b1", "x2"), ("x1", "_a2"), ("x1", "_b2"))
        lines.append(f"{pad}_a1, _b1, _a2, _b2 = x1 + _mh, x1 + _h, x2 + _mh, x2 + _h\n{pad}if not "
                     "(-_inf < _a1 < _inf and -_inf < _b1 < _inf and -_inf < _a2 < _inf and -_inf < _b2 < _inf): break\n")
        sym = emit(slopes)
        lo1, hi1, lo2, hi2 = (emit(values, *p) for p in at)
        if kinks:
            lines.append(f"{pad}_m1, _m2 = x1 + 0.0, x2 + 0.0\n")
            mid1, mid2 = emit(kinks, "_m1", "x2"), emit(kinks, "x1", "_m2")
            lines += [
                f"{pad}if not (0.0 < {a} and 0.0 < {b} and 0.0 < {c} or {a} < 0.0 and {b} < 0.0 and {c} < 0.0): break\n"
                for k in kinks for a, b, c in ((lo1[k], mid1[k], hi1[k]), (lo2[k], mid2[k], hi2[k]))
            ]
        # The fold of `numeric._fd_point`, after every node of the point ran.
        lines += [
            f"{pad}_e = abs({s} - ({hi[e]} - {lo[e]}) / _2h) / (1.0 + abs({s}))\n"
            f"{pad}if not _e <= w{i}: w{i} = _e if _e == _e else _inf\n"
            for i, e in enumerate(values)
            for s, lo, hi in ((sym[slopes[i]], lo1, hi1), (sym[slopes[n + i]], lo2, hi2))
        ]
        state = "[" + "".join(f"w{i}, " for i in range(n)) + "]"
        extra, pre = ", _h", "    _mh, _2h = -_h, 2.0 * _h\n"
    else:
        outs = [names[i] for names in [emit(roles[0])] for i in roles[0]]
    if shape == "sweep":
        state = "[" + "".join(f"lo{i}, hi{i}, nan{i}, " for i in range(len(outs))) + "]"
        # Only a value outside [lo, hi] can move a bound, -0.0 against 0.0
        # too; a NaN fails every compare, so it moves none and sets the flag.
        lines += [
            f"{pad}if not lo{i} <= {o} <= hi{i}:\n{pad}    if {o} < lo{i}: lo{i} = {o}\n"
            f"{pad}    if {o} > hi{i}: hi{i} = {o}\n{pad}    if {o} != {o}: nan{i} = True\n"
            for i, o in enumerate(outs)
        ] or [f"{pad}pass\n"]
        extra = pre = ""
    params = "".join(f", _k{slot}" for slot in range(words[1]))
    if shape in ("single", "many"):
        result = outs[0] if shape == "single" else "(" + "".join(f"{o}, " for o in outs) + ")"
        return f"def _compiled(x1, x2{params}):\n" + "".join(lines) + f"    return {result}\n"
    # The loop sits in one try, and a point's node code runs before any
    # fold: a raise or a break leaves the state of the points before.
    return (
        f"def _compiled(_points, _state{extra}{params}):\n    {state} = _state\n{pre}"
        "    try:\n        for x1, x2 in _points:\n" + "".join(lines)
        + f"        else:\n            return {state}, None\n    except _EVAL_ERRORS:\n        pass\n"
        f"    return {state}, (x1, x2)\n"
    )


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr, v: Var) -> Expr:
    """Exact symbolic partial derivative of `e` with respect to `v`,
    simplified and built in one pass: each node's rule (`_derivative_rule`)
    is applied to the derivatives of its children, every node built by
    `_rule`, so none that `simplify` would drop is built.  Total on the
    supported nodes: abs(u)' is sign(u)*u', an error where u vanishes, and
    sign(u)' is 0.  Memoised per job like `simplify`, so a shared subtree
    is differentiated once; each output is recorded as `simplify`'s fixpoint."""
    if (job := _STREAM.get()) is None:
        with _job_stream():
            return differentiate(e, v)
    memo = job[differentiate, v]
    if (d := memo.get(e)) is None:
        kids = e.children()
        if not kids:
            d = _derivative_rule(e, v)
        elif len(kids) == 1:
            d = _derivative_rule(e, v, differentiate(kids[0], v))
        else:
            d = _derivative_rule(e, v, differentiate(kids[0], v), differentiate(kids[1], v))
        memo[e] = job[simplify][d] = d
    return d


def _derivative_rule(e: Expr, v: Var, da: Expr | None = None, db: Expr | None = None) -> Expr:
    """The derivative of `e` given the simplified derivatives of its
    children, in order.  Each node is built by `_rule`, and `e` or a
    child is read simplified; the branch is chosen on `e` itself
    (`Pow(u, 1 + 1)` takes the general power rule)."""
    kind = type(e)
    if kind is Constant:
        return ZERO
    if kind is Variable:
        return ONE if e.var is v else ZERO
    if kind is Negate:
        return _rule(Negate, da)
    if kind is Add or kind is Sub:
        return _rule(kind, da, db)
    if kind is Mul:
        return _rule(Add, _rule(Mul, da, simplify(e.rhs)), _rule(Mul, simplify(e.lhs), db))
    if kind is Div:
        den = simplify(e.den)
        return _rule(Div, _rule(Sub, _rule(Mul, da, den), _rule(Mul, simplify(e.num), db)), _rule(Pow, den, Constant(2.0)))
    if kind is Pow:
        expo = e.exponent
        if type(expo) is Constant:
            if expo.value == 0.0:
                return ZERO
            if expo.value == 1.0:
                return da
            return _rule(Mul, _rule(Mul, expo, _rule(Pow, simplify(e.base), Constant(expo.value - 1.0))), da)
        # general u^w via u^w * (w' log u + w u'/u)
        base = simplify(e.base)
        return _rule(Mul, simplify(e), _rule(Add, _rule(Mul, db, _rule(Apply, base, fn="log")),
                                             _rule(Mul, simplify(expo), _rule(Div, da, base))))
    if kind is Apply:
        return CHAIN_RULES[e.fn](simplify(e), simplify(e.arg), da)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(e: Expr) -> Expr:
    """Light cleanup: constant folding, 0/1 identities, double negation,
    x-x and x/x collapse.  No completeness claim; in particular no
    trigonometric or hyperbolic rewriting ever happens.

    Wherever the input is defined the output gives its float, except
    that the rules for a sum, difference, product or quotient with a zero
    operand, x-x and x/x drop the sign of a zero result (`0*x1` at
    x1 = -3 is -0.0, simplified 0; `x1 + 0` at x1 = -0.0 is 0.0,
    simplified -0.0) and the NaN of a non-finite operand (`0*x1^400` at
    x1 = 10 is NaN, simplified 0; so is `x1^400 - x1^400`).  Memoised
    per job, in the job's record; outside a job the outermost call opens
    one, so a shared subtree is simplified once.  The output is recorded
    as its own fixpoint, so simplifying it again returns at once.
    """
    if (job := _STREAM.get()) is None:
        with _job_stream():
            return simplify(e)
    memo = job[simplify]
    if (s := memo.get(e)) is None:
        kind = type(e)
        if kind is Apply:
            s = _rule(Apply, simplify(e.arg), None, e.fn)
        elif kind is Negate:
            s = _rule(Negate, simplify(e.arg))
        elif kind is Constant or kind is Variable:
            s = e
        else:
            s = _rule(kind, simplify(e.lhs), simplify(e.rhs))
        memo[e] = memo[s] = s
    return s


def _rule(kind: type, a: Expr, b: Expr | None = None, fn: str | None = None) -> Expr:
    """The node `kind` of the operands `a` and `b` (an Apply's `fn` of
    `a`), both already simplified, simplified: the one rule of `simplify`
    and the builder of `differentiate`, a smart constructor that builds
    no node a rule drops.  The output is its own fixpoint under `simplify`."""
    x = a.value if type(a) is Constant else None  # an operand's value where it is a constant
    y = b.value if type(b) is Constant else None
    if kind is Negate:
        return _negated(a)
    if kind in _CONSTANT_FOLDS and x is not None and y is not None:
        return Constant(_CONSTANT_FOLDS[kind](x, y))
    if kind is Add:
        return b if x == 0.0 else a if y == 0.0 else Add(a, b)
    if kind is Sub:
        return a if y == 0.0 else ZERO if a is b else _negated(b) if x == 0.0 else Sub(a, b)
    if kind is Mul:
        if x == 0.0 or y == 0.0:
            return ZERO
        if x == 1.0 or y == 1.0:
            return b if x == 1.0 else a
        if x == -1.0 or y == -1.0:
            return _negated(b if x == -1.0 else a)
        return Mul(a, b)
    if kind is Div:
        if x is not None and y is not None and y != 0.0:
            return Constant(x / y)
        return a if y == 1.0 else ZERO if x == 0.0 else ONE if a is b else Div(a, b)
    if kind is Pow:
        if y == 0.0 or y == 1.0:
            return ONE if y == 0.0 else a
        return Pow(a, b) if (v := _folded(_pow_value, x, y)) is None else Constant(v)
    if kind is Apply:
        return Constant(v) if (v := _folded(FUNCTIONS[fn], x)) is not None and math.isfinite(v) else Apply(fn, a)
    raise TypeError(f"not an expression node type: {kind!r}")


def _folded(f: Callable[..., float], *values: float | None) -> float | None:
    """`f(*values)`, or None where a value is None (an operand that is no
    constant) or `f` is undefined there."""
    if None in values:
        return None
    try:
        return f(*values)
    except EVAL_ERRORS:
        return None


def _negated(e: Expr) -> Expr:
    """Negation of an already-simplified expression, kept reduced."""
    if type(e) is Constant:
        return Constant(-e.value)
    if type(e) is Negate:
        return e.arg
    return Negate(e)


# ---------------------------------------------------------------------------
# Tree queries
# ---------------------------------------------------------------------------


def variables_of(e: Expr) -> set[Var]:
    return {node.var for node in _nodes([e]) if isinstance(node, Variable)}


def _guard_root(e: Expr) -> Expr:
    """Reduce a denominator to the factor whose zeros make it vanish.

    Powers, constant factors, and negations do not move the singular
    set, but they do rescale magnitudes: guarding (2 f)^4 directly would
    reject |f| < (guard/16)^(1/4), a far larger band than the zero
    neighborhood the guard is meant to exclude.
    """
    while True:
        if isinstance(e, Pow) and isinstance(e.exponent, Constant) and e.exponent.value > 0:
            e = e.base
        elif isinstance(e, Negate):
            e = e.arg
        elif isinstance(e, Mul) and isinstance(e.lhs, Constant) and e.lhs.value != 0.0:
            e = e.rhs
        elif isinstance(e, Mul) and isinstance(e.rhs, Constant) and e.rhs.value != 0.0:
            e = e.lhs
        else:
            return e


def denominators(*roots: Expr) -> list[Expr]:
    """Subexpressions that must stay away from zero for `roots` to be
    defined: Div denominators and bases of negative constant powers,
    reduced to their guard roots.  Each node once, in the `_nodes` order
    of the nodes they guard; one pass over the DAG under all the roots."""
    found = []
    for node in _nodes(roots):
        if isinstance(node, Div):
            found.append(_guard_root(node.den))
        elif isinstance(node, Pow) and isinstance(node.exponent, Constant) and node.exponent.value < 0:
            found.append(_guard_root(node.base))
    return [root for root in dict.fromkeys(found) if not isinstance(root, Constant)]


def kink_arguments(e: Expr) -> list[Expr]:
    """Arguments of abs/sign nodes, the loci of nonsmoothness, each once,
    in the `_nodes` order of those nodes."""
    return list(dict.fromkeys(node.arg for node in _nodes([e]) if isinstance(node, Apply) and node.fn in ("abs", "sign")))


# ---------------------------------------------------------------------------
# Probabilistic zero test
# ---------------------------------------------------------------------------


_FINITE_ARGUMENT = frozenset({"log", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "abs"})


def _finiteness_folds(e: Expr) -> list[Expr]:
    """The nodes of `e` that need finite ranges of their own for finite
    `e` to mean finite nodes, in one pass from the root, parents first.
    An operand of `+ - *` or negation, a Div numerator, the base of a
    positive integer constant power and a `_FINITE_ARGUMENT` argument
    are finite where their parent is; no other operand is (x/inf = 0,
    exp(-inf) = 0, sign(nan) = -1).  Variables (Domain keeps coordinates
    finite) and finite constants are never folds."""
    finite, folds = {e}, []
    for node in reversed(_nodes([e])):
        if node not in finite:
            if isinstance(node, Variable) or isinstance(node, Constant) and math.isfinite(node.value):
                continue
            folds.append(node)
        kind, expo = type(node), getattr(node, "exponent", None)  # a Pow's only
        if kind is Div:
            finite.add(node.num)
        elif kind in (Add, Sub, Mul, Negate) or kind is Apply and node.fn in _FINITE_ARGUMENT or (
            isinstance(expo, Constant) and expo.value > 0 and expo.value.is_integer()
        ):
            finite.update(node.children())
    return folds


def is_probably_zero(e: Expr, d: Domain, cfg: SamplingConfig) -> bool:
    """Decide whether `e` vanishes identically on `d`, by sampling.

    Draws cfg.samples seeded uniform points (the stream of cfg.seed),
    rejecting any where a denominator of `e` has magnitude below
    d.guard.  A point reads as zero iff every node of `e` has a finite
    value there and |e(p)| <= tol * (1 + scale), tol being
    cfg.tolerance and the scale the largest |value| of any node (the
    scale of `evaluate_with_scale`); a non-finite node value, even one
    that a later division turns finite, counts as nonzero.  Accepts
    zero-ness iff every evaluable point reads as zero.  The verdict is
    deterministic given the seed.  Raises DomainTooSingularError when
    fewer than samples/2 points survive rejection and evaluation.

    The ranges of `e` and its `_finiteness_folds`, read from the job's
    record of its points (`numeric._extrema`) or swept once the first
    evaluable point reads as zero, accept when e's lies in [-tol, tol]
    with no NaN and each fold's is finite; else points are read in turn.
    The folds are computed once per job (`_once_per_job`), and the
    kernel of every node only when a point is read.
    """
    from .numeric import DomainTooSingularError, _enough, _extrema, _recorded, sample_points

    points = sample_points(d, cfg, guards=denominators(e))
    tol, enough = cfg.tolerance, _enough(cfg.samples)
    folds = _once_per_job(_finiteness_folds, e)
    nodes: list[Expr] = []  # every node, `e` first: listed and compiled when a row is first read

    def reads_zero(row: tuple[float, ...]) -> bool:
        # The common case first, in one C-level call: a float sum with a
        # non-finite term is non-finite, so a finite sum means every
        # node is finite, and tol <= tol * (1 + scale).  Any other row
        # (an overflowing sum over finite nodes included) gets the rule.
        return (-tol <= row[0] <= tol and math.isfinite(sum(row))) or (
            all(map(math.isfinite, row)) and abs(row[0]) <= tol * (1.0 + max(map(abs, row)))
        )

    def evaluable_rows():
        nodes.extend(reversed(_nodes([e])))
        fn = compile_many(nodes)
        for x1, x2 in points:
            try:
                yield fn(x1, x2)
            except EVAL_ERRORS:
                pass

    rows, first, record = evaluable_rows(), None, _recorded(points)
    recorded = [record.get((f,)) for f in (e, *folds)]
    if None in recorded:
        if (first := next(rows, None)) is None or not reads_zero(first):
            # Not zero at the first point: the answer is fixed once enough points are evaluable.
            recorded = [([None], (first is not None) + sum(1 for _ in itertools.islice(rows, enough - 1)))]
        else:
            # A list of `sample_points` is drawn from `d`, with finite coordinates; check any list's.
            groups = [[e], *[[f] for f in folds], *[[v] for v in nodes if isinstance(v, Variable)]]
            recorded = _extrema(groups, points)
    ([state], evaluated), *rest = recorded
    if evaluated < enough:
        raise DomainTooSingularError(f"only {evaluated} of {cfg.samples} requested points were evaluable")
    if state is None:
        return False
    (lo, hi, nan), finite = state, all(-math.inf < a <= b < math.inf and not n for [(a, b, n)], _ in rest)
    if not nan and -tol <= lo and hi <= tol and finite:
        return True
    return reads_zero(first or next(rows)) and all(map(reads_zero, rows))


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<space>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_ADD_PREC = 10
_MUL_PREC = 20
_UNARY_PREC = 25
_POW_PREC = 30
_ATOM_PREC = 100


# kind is "number", "ident", one of "+-*/^()" or "end".
_Token = collections.namedtuple("_Token", "kind text position")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind == "op":
            tokens.append(_Token(m.group(), m.group(), m.start()))
        else:
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Pratt parser for the expression grammar.

    Precedence: + - (10) < * / (20) < unary minus (25) < ^ (30, right
    associative).  Unary minus on a bare numeric literal folds into a
    negative constant unless the literal is immediately raised to a
    power, so that -2^2 still parses as -(2^2).
    """

    _LBP = {"+": _ADD_PREC, "-": _ADD_PREC, "*": _MUL_PREC, "/": _MUL_PREC, "^": _POW_PREC}
    # The node type of each operator but ^, from the code generator's table.
    _NODES = {op: kind for kind, op in _BINARY_OPS.items()}

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return e

    def expression(self, rbp: int) -> Expr:
        left = self.prefix()
        while rbp < self._LBP.get(self.peek().kind, 0):
            tok = self.advance()
            if tok.kind == "^":
                # right associative: bind the right side one level looser
                left = Pow(left, self.expression(_POW_PREC - 1))
            else:
                left = self._NODES[tok.kind](left, self.expression(self._LBP[tok.kind]))
        return left

    def prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Constant(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "x1":
                return X1
            if tok.text == "x2":
                return X2
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.expression(0)
                self.expect(")")
                return Apply(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.position)
        if tok.kind == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if tok.kind == "-":
            nxt = self.peek()
            if nxt.kind == "number" and self.tokens[self.pos + 1].kind != "^":
                self.advance()
                return Constant(-float(nxt.text))
            operand = self.expression(_UNARY_PREC)
            return Negate(operand)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.position)


def parse(text: str) -> Expr:
    """Parse an infix expression over x1, x2, literals, + - * / ^,
    parentheses, and the supported functions."""
    return _Parser(text).parse()


def _format_number(v: float) -> str:
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"  # literals that overflow to +-inf
    if v.is_integer() and abs(v) < 1e16:
        return f"{v:.0f}"  # the integer's digits, "-0" for -0.0
    return repr(v)


# Each infix node type: its operator, its precedence, and the least
# precedence its left and its right operand print bare at.
_INFIX = {
    Add: (" + ", _ADD_PREC, _ADD_PREC, _ADD_PREC + 1),
    Sub: (" - ", _ADD_PREC, _ADD_PREC, _ADD_PREC + 1),
    Mul: ("*", _MUL_PREC, _MUL_PREC, _MUL_PREC + 1),
    Div: ("/", _MUL_PREC, _MUL_PREC, _MUL_PREC + 1),
    Pow: ("^", _POW_PREC, _POW_PREC + 1, _POW_PREC),
}


def to_string(e: Expr) -> str:
    """Render `e` in the parse grammar; parse(to_string(e)) is e.
    Constant(-0.0) prints as -0 and an infinite constant as 1e999 or
    -1e999, each a negative one at unary precedence; a NaN constant
    prints as nan, which the grammar has no literal for.

    No recursion: each distinct node is rendered once, children first,
    and its text dropped once its last parent has read it, so a long
    chain never holds the texts of all its prefixes.
    """
    return _to_strings([e])[0]


def _to_strings(roots: Sequence[Expr]) -> list[str]:
    """`to_string` of each of `roots`, in order, from one pass over the
    distinct nodes under all of them: a text is dropped after its last
    parent has read it, but a root's text is kept to the end."""
    nodes = _nodes(roots)
    uses = collections.Counter([*(child for node in nodes for child in node.children()), *roots])
    texts: dict[Expr, tuple[int, str]] = {}

    def operand(child: Expr, min_prec: int) -> str:
        prec, s = texts[child]
        uses[child] -= 1
        if not uses[child]:
            del texts[child]
        return f"({s})" if prec < min_prec else s

    for node in nodes:
        kind = type(node)
        if kind is Constant:
            s = _format_number(node.value)
            text = (_UNARY_PREC if s[0] == "-" or s == "nan" else _ATOM_PREC, s)
        elif kind is Variable:
            text = (_ATOM_PREC, node.var.value)
        elif kind is Apply:
            text = (_ATOM_PREC, f"{node.fn}({operand(node.arg, 0)})")
        elif kind is Negate:
            # A constant operand is parenthesized so that the parser
            # rebuilds Negate(Constant).
            if type(node.arg) is Constant:
                text = (_UNARY_PREC, f"-({operand(node.arg, 0)})")
            else:
                text = (_UNARY_PREC, "-" + operand(node.arg, _UNARY_PREC + 1))
        elif kind in _INFIX:
            op, prec, left, right = _INFIX[kind]
            text = (prec, operand(node.lhs, left) + op + operand(node.rhs, right))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        texts[node] = text
    return [texts[root][1] for root in roots]
