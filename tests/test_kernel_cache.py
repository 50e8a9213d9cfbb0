"""The process-wide kernel cache behind the compiled kernels: keyed on
the shape of the DAG, one compiled kernel per distinct shape, with every
constant bound as a parameter, so a parameter sweep emits and compiles
once; exact on sharing, exponents, signed zeros and non-finite
constants, bounded, holding no expression node, and safe under racing
threads."""

from __future__ import annotations

import builtins
import gc
import json
import math
import random
import struct
import sys
import threading
import weakref

from ricciplane import cli, expr
from ricciplane.expr import (
    EVAL_ERRORS,
    Add,
    Apply,
    Constant,
    Domain,
    EvaluationError,
    Expr,
    Mul,
    Pow,
    Sub,
    X1,
    X2,
    compile_expr,
    compile_many,
    _nodes,
    parse,
)
from ricciplane.numeric import SamplingConfig, fd_validate

from conftest import CORPUS, evaluate, random_smooth_tree, reference_fd_validate


def _bits(value: float) -> int:
    # float.hex does not tell NaN signs apart; the IEEE bits do.
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _counting_compile(monkeypatch) -> list:
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    return calls


def test_second_identical_job_compiles_nothing(monkeypatch, capsys):
    expr._template.cache_clear()
    compiled = _counting_compile(monkeypatch)
    argv = ["oracle", "--spec", str(CORPUS / "ex03_cosh_metric.json")]
    assert cli.main(argv) == 0
    first = capsys.readouterr()
    assert 1 <= len(compiled) <= 3
    compiled.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr() == first
    assert compiled == []


def test_signed_zeros_and_non_finite_constants_are_separate_kernels():
    expr._template.cache_clear()
    p = (1.5, -0.25)
    seen = set()
    for value in (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan):
        # Each tree dies before the next is built, so the NaN constant is
        # built anew, with the sign of `value`.
        e = Add(Mul(X1, Constant(value)), Constant(value))
        assert _bits(e.rhs.value) == _bits(value)
        fn = compile_expr(e)
        assert _bits(fn(*p)) == _bits(evaluate(e, p))
        assert _bits(compile_expr(Constant(value))(*p)) == _bits(value)
        seen.add(fn)
        del e
    assert len(seen) == 6
    # Two shapes: x1*k + k, and a lone constant.
    assert expr._template.cache_info().currsize == 2


def test_cache_stays_within_its_bound():
    expr._template.cache_clear()
    bound = expr._KERNEL_CACHE_SIZE
    for n in range(9, bound + 19):
        # Each exponent is its own shape: above 8 it is spelled out in
        # an _int_pow call, whatever the constants.
        e = Pow(X1, Constant(float(n)))
        assert compile_expr(e)(-1.0, 0.0) == (-1.0) ** n
        assert expr._template.cache_info().currsize <= bound
    assert expr._template.cache_info().currsize == bound
    assert expr._template.cache_info().maxsize == bound


def test_cache_keeps_no_node_alive(monkeypatch):
    gc.collect()
    gc.disable()
    try:
        e = parse("exp(x1) * sinh(x2 + 17.25) / (3.5 + x1^2)")
        nodes = [weakref.ref(e), weakref.ref(e.num)]
        expected = (evaluate(e, (0.5, 0.5)), evaluate(e.num, (0.5, 0.5)))
        fn = compile_many([e, e.num])
        compiled = _counting_compile(monkeypatch)
        again = compile_many([e, e.num])
        assert compiled == []
        assert [_bits(v) for v in again(0.5, 0.5)] == [_bits(v) for v in expected]
        del e, again
        # Without the cycle collector, only reference counting frees nodes.
        assert [r() for r in nodes] == [None, None]
        assert fn(0.5, 0.5) == expected
    finally:
        gc.enable()


def test_threads_racing_on_the_kernel_cache():
    def work(seed: int, out: list) -> None:
        rng = random.Random(seed)
        for _ in range(60):
            e = random_smooth_tree(rng, depth=4)
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                expected = _bits(evaluate(e, p))
            except EvaluationError:
                expected = None
            try:
                got = _bits(compile_expr(e)(*p))
            except EVAL_ERRORS:
                got = None
            out.append(got == expected)

    expr._template.cache_clear()
    results = [[] for _ in range(6)]
    # Overlapping seeds: threads share some sources and evict each other's.
    threads = [threading.Thread(target=work, args=(i // 2, out)) for i, out in enumerate(results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[True] * 60] * len(results)
    assert expr._template.cache_info().currsize <= expr._KERNEL_CACHE_SIZE


# Two members of each family sweep: the same f2 shape and kind, other
# constants.
SWEEPS = [
    [
        {"kind": "branch1", "f2": "exp(1.3*x1)", "k": 1.37, "c": 0.83},
        {"kind": "branch1", "f2": "exp(0.7*x1)", "k": 0.52, "c": 1.91},
    ],
    [
        {"kind": "branch2", "f2": "cosh(1.1*x1) + 2", "c": 1.24, "c1": 0.6, "c2": -1.3},
        {"kind": "branch2", "f2": "cosh(1.7*x1) + 2", "c": 0.71, "c1": -1.8, "c2": 0.45},
    ],
]


def _sweep_member(tmp_path, capsys, name: str, family: dict) -> list:
    """Construct `family` and run `identities` on the emitted spec;
    return each command's (exit code, stdout)."""
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps({"family": family, "domain": {"x1": [0.25, 1.25], "x2": [-1.0, 1.0]}}))
    derived = str(tmp_path / f"{name}.derived.json")
    outputs = []
    for argv in (["construct", "--spec", str(spec), "--emit-spec", derived], ["identities", "--spec", derived]):
        code = cli.main(argv)
        outputs.append((code, capsys.readouterr().out))
    return outputs


def test_parameter_sweep_compiles_nothing_after_its_first_member(tmp_path, monkeypatch, capsys):
    compiled, emitted = _counting_compile(monkeypatch), _emits(monkeypatch)
    for i, (first, second) in enumerate(SWEEPS):
        expr._template.cache_clear()
        assert [code for code, _ in _sweep_member(tmp_path, capsys, f"a{i}", first)] == [0, 0]
        assert compiled != [] and emitted != []
        compiled.clear()
        emitted.clear()
        warm = _sweep_member(tmp_path, capsys, f"b{i}", second)
        assert compiled == [] and emitted == []
        expr._template.cache_clear()
        assert _sweep_member(tmp_path, capsys, f"b{i}", second) == warm


# Constants a kernel must carry bit for bit.
SPECIAL_CONSTANTS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e308, -1e308, 5e-324, -5e-324, 2.2e-310]


def _with_constants(e: Expr, draw) -> Expr:
    """`e` with every constant outside an exponent replaced by `draw()`."""
    if isinstance(e, Constant):
        return Constant(draw())
    if isinstance(e, Pow):
        return Pow(_with_constants(e.base, draw), e.exponent)
    if isinstance(e, Apply):
        return Apply(e.fn, _with_constants(e.arg, draw))
    kids = e.children()
    return type(e)(*[_with_constants(k, draw) for k in kids]) if kids else e


def _shape(exprs: list) -> tuple:
    """What a kernel of `exprs` depends on besides its constants' values:
    in creation order, the operation and operands of each inner node
    (a variable, the i-th constant read or the j-th inner node), with
    the exponent of a power whose code spells it out, in place of that
    operand; the number of constants read; and the results.  Constants
    are numbered at their first read, by an operation, then by a result."""
    nodes = sorted({id(n): n for e in exprs for n in _nodes([e])}.values(), key=lambda n: n._serial)
    names, consts, ops = {}, {}, []

    def name(n: Expr) -> tuple:
        return ("k", consts.setdefault(id(n), len(consts))) if isinstance(n, Constant) else names[id(n)]

    for n in nodes:
        if isinstance(n, Constant):
            continue
        if not n.children():
            names[id(n)] = n.var
            continue
        tag, read = getattr(n, "fn", None), n.children()
        if isinstance(n, Pow) and isinstance(n.exponent, Constant):
            v = n.exponent.value
            if v.is_integer() and abs(v) <= expr._INT_POW_MAX:
                tag, read = int(v), (n.base,)
        names[id(n)] = ("t", len(ops))
        ops.append((type(n).__name__, tag, tuple(name(k) for k in read)))
    results = tuple(name(e) for e in exprs)
    return tuple(ops), len(consts), results


def test_bound_constants_stay_bit_exact_when_they_share_a_shape():
    rng = random.Random(1218)

    def draw() -> float:
        if rng.random() < 0.6:
            return rng.choice(SPECIAL_CONSTANTS)
        return math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-1074, 1024))

    expr._template.cache_clear()
    shapes, kernels = set(), 0
    for _ in range(25):
        base = random_smooth_tree(rng, depth=4)
        for e in [base] + [_with_constants(base, draw) for _ in range(6)]:
            shapes.add(_shape([e]))
            fn = compile_expr(e)
            kernels += 1
            for _ in range(4):
                p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
                try:
                    expected = _bits(evaluate(e, p))
                except EvaluationError:
                    expected = None
                try:
                    got = _bits(fn(*p))
                except EVAL_ERRORS:
                    got = None
                assert got == expected, (expr.to_string(e), p)
    assert expr._template.cache_info().currsize == len(shapes) < kernels


def _emits(monkeypatch) -> list:
    """Records the key of every kernel source emitted: one per cache miss."""
    emitted = []
    original = expr._emit
    monkeypatch.setattr(expr, "_emit", lambda key: emitted.append(key) or original(key))
    return emitted


def _walked(e: Expr, p) -> int | None:
    try:
        return _bits(evaluate(e, p))
    except EvaluationError:
        return None


def _assert_walker_bits(fn, e: Expr, points) -> None:
    for p in points:
        try:
            got = _bits(fn(*p))
        except EVAL_ERRORS:
            got = None
        assert got == _walked(e, p), (expr.to_string(e), p)


POINTS = [(x1, x2) for x1 in (-1.5, -1.0, -0.0, 0.0, 0.75, 2.0) for x2 in (-1.0, 0.5, 1.0)]


def test_same_tree_shape_with_other_sharing_is_another_kernel(monkeypatch):
    expr._template.cache_clear()
    emitted = _emits(monkeypatch)
    # a != b: two products and two exponentials; a == b: one of each,
    # read twice.  The trees have one shape, the DAGs two.
    apart, shared = parse("exp(1.0625*x1)*exp(0.5078125*x1)"), parse("exp(1.0625*x1)*exp(1.0625*x1)")
    assert shared.lhs is shared.rhs and apart.lhs is not apart.rhs
    kernels = [compile_expr(e) for e in (apart, shared)]
    assert len(emitted) == 2 and kernels[0].__code__ is not kernels[1].__code__
    for fn, e in zip(kernels, (apart, shared)):
        _assert_walker_bits(fn, e, POINTS)
    # Other constants with either sharing take that sharing's kernel.
    for e, fn in ((parse("exp(2.0625*x1)*exp(0.3828125*x1)"), kernels[0]), (parse("exp(2.0625*x1)*exp(2.0625*x1)"), kernels[1])):
        again = compile_expr(e)
        assert again.__code__ is fn.__code__
        _assert_walker_bits(again, e, POINTS)
    assert len(emitted) == 2


def test_each_spelled_out_exponent_is_its_own_kernel(monkeypatch):
    expr._template.cache_clear()
    emitted = _emits(monkeypatch)
    base = Sub(X1, Constant(0.3125))
    kernels = {n: compile_expr(Pow(base, Constant(n))) for n in (2.0, 3.0, 9.0, 2.5)}
    assert len(emitted) == 4 and len({fn.__code__ for fn in kernels.values()}) == 4
    assert [("_int_pow" in fn.__code__.co_names, "_pow_value" in fn.__code__.co_names) for fn in kernels.values()] == [
        (False, False), (False, False), (True, False), (False, True)
    ]
    for n, fn in kernels.items():
        # Negative bases: the integer powers are defined, 2.5 raises.
        _assert_walker_bits(fn, Pow(base, Constant(n)), POINTS)
    # Another non-integer exponent is a constant like any other: same kernel.
    assert compile_expr(Pow(base, Constant(0.75))).__code__ is kernels[2.5].__code__
    # An exponent that is also a factor stays one slot, bound to its bits.
    e = Mul(Constant(9.0), Pow(base, Constant(9.0)))
    _assert_walker_bits(compile_expr(e), e, POINTS)
    assert len(emitted) == 5


def test_signed_zero_and_nan_slots_keep_their_bits(monkeypatch):
    expr._template.cache_clear()
    emitted = _emits(monkeypatch)
    # Two zero constants are two slots; one zero read twice is one.
    # At x1 < 0 < x2, -0.0 + -0.0 is -0.0 and -0.0 + 0.0 is 0.0.
    two = Add(Mul(X1, Constant(0.0)), Mul(X2, Constant(-0.0)))
    one = Add(Mul(X1, Constant(0.0)), Mul(X2, Constant(0.0)))
    kernels = [compile_expr(e) for e in (two, one)]
    assert len(emitted) == 2
    assert [_bits(fn(-1.0, 1.0)) for fn in kernels] == [_bits(-0.0), _bits(0.0)]
    for fn, e in zip(kernels, (two, one)):
        _assert_walker_bits(fn, e, POINTS)
    for nan in (math.nan, -math.nan):
        # A NaN slot next to the infinities' slots carries the bits of its node.
        e = Add(Mul(Add(X1, Constant(math.inf)), Constant(nan)), Sub(X2, Constant(-math.inf)))
        fn = compile_many([e, e.lhs, e.rhs])
        for p in POINTS:
            assert [_bits(v) for v in fn(*p)] == [_walked(n, p) for n in (e, e.lhs, e.rhs)]
        del e
    assert len(emitted) == 3


def test_fd_kernel_over_lists_that_share_constants(monkeypatch):
    # One constant node read by a value, by both of its slopes and by a
    # kink argument: one slot in the fd kernel.  `two` and the operations
    # that read no k outlive both jobs, so each job sees its constants and
    # operations in the same creation order.
    two = Constant(2.0)
    square, product = Pow(X1, two), Mul(X1, X2)
    d, cfg = Domain((0.25, 1.25), (-1.0, 1.0)), SamplingConfig(samples=300, seed=8)

    def job(c: float) -> list:
        k = Constant(c)
        return [
            Add(Mul(k, square), Apply("abs", Sub(X2, k))),
            Mul(Apply("sin", Mul(k, X2)), Add(k, X1)),
            Apply("exp", Mul(k, product)),
        ]

    expr._template.cache_clear()
    first = job(0.1171875)
    assert fd_validate(first, d, cfg) == reference_fd_validate(first, d, cfg)
    emitted = _emits(monkeypatch)
    second = job(0.4140625)
    assert fd_validate(second, d, cfg) == reference_fd_validate(second, d, cfg)
    assert emitted == []


def test_constants_of_any_age_share_the_kernel_of_their_shape(monkeypatch):
    # A constant slot is numbered at its first reference, not by the
    # constant's age.  0.6875 is made after k in the first job and, kept
    # alive by that job's trees, is older than k in the second; slots
    # numbered in creation order gave the second job other keys.
    d, cfg = Domain((0.25, 1.25), (-1.0, 1.0)), SamplingConfig(samples=300, seed=8)

    def job(c: float) -> list:
        k = Constant(c)
        return [
            Add(Mul(k, Pow(X1, Constant(2.0))), Apply("abs", Sub(X2, k))),
            Mul(Apply("sin", Mul(k, X2)), Add(k, X1)),
            Apply("exp", Mul(k, Mul(Mul(X1, X2), Constant(0.6875)))),
        ]

    assert expr._live((Constant, (0.6875).hex())) is None
    expr._template.cache_clear()
    first = job(0.1171875)
    assert fd_validate(first, d, cfg) == reference_fd_validate(first, d, cfg)
    emitted = _emits(monkeypatch)
    second = job(0.4140625)
    assert fd_validate(second, d, cfg) == reference_fd_validate(second, d, cfg)
    assert emitted == []
