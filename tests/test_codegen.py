"""The code generator behind compiled evaluation: the value and scale
that the zero test reads from one fused kernel over every node, the
fused multi-expression kernel, structural common-subexpression
elimination, and kernels that leave nothing for the cycle collector."""

from __future__ import annotations

import dis
import gc
import math
import random
import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricciplane.expr import (
    EVAL_ERRORS,
    Add,
    Apply,
    Constant,
    EvaluationError,
    Mul,
    Pow,
    X1,
    X2,
    compile_expr,
    compile_many,
    compile_sweep,
    evaluate_with_scale,
    parse,
)
from ricciplane.expr import _int_pow, _nodes

from conftest import evaluate, random_smooth_tree


def _bits(values) -> tuple[str, ...]:
    # float.hex tells -0.0 from 0.0, which == does not.
    return tuple(float(v).hex() for v in values)


def _value_and_scale(row) -> tuple[float, float]:
    # What `is_probably_zero` reads from its kernel over `_nodes([e])` reversed.
    return row[0], max(map(abs, row))


def test_scaled_kernel_is_bit_identical_to_evaluate_with_scale():
    # The reference walker, node by node, against the zero test's kernel.
    rng = random.Random(2006)
    checked = 0
    while checked < 48:
        e = random_smooth_tree(rng, depth=5)
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            expected = _value_and_scale([evaluate(node, p) for node in _nodes([e])[::-1]])
        except EvaluationError:
            try:
                evaluate_with_scale(e, p)
            except EVAL_ERRORS:
                continue
            raise AssertionError(f"compiled kernel is defined where {e} is not")
        assert _bits(evaluate_with_scale(e, p)) == _bits(expected), str(e)
        checked += 1


def test_evaluate_with_scale_reads_a_nan_node_like_the_zero_test_kernel():
    # inf - inf is NaN, so the root is NaN: the kernel's max(map(abs, row))
    # starts from it and stays NaN, although another node is infinite.
    e = parse("1e400 - 1e400 + 1")
    p = (0.5, 0.5)
    expected = _value_and_scale([evaluate(node, p) for node in _nodes([e])[::-1]])
    assert _bits(evaluate_with_scale(e, p)) == _bits(expected) == ("nan", "nan")


def test_compile_many_matches_separate_compiles():
    rng = random.Random(3)
    shared = random_smooth_tree(rng, depth=3)
    exprs = [random_smooth_tree(rng, depth=4) for _ in range(6)]
    # Reuse one subtree across outputs, as rho is reused by R1-R4.
    exprs += [Add(shared, exprs[0]), Mul(exprs[1], shared), shared]
    fused = compile_many(exprs)
    separate = [compile_expr(e) for e in exprs]
    compared = 0
    for _ in range(60):
        x1, x2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        try:
            expected = tuple(fn(x1, x2) for fn in separate)
        except EVAL_ERRORS:
            continue
        assert _bits(fused(x1, x2)) == _bits(expected)
        compared += 1
    assert compared >= 30
    assert compile_many([])(0.5, 0.5) == ()


def test_sweep_folds_the_values_of_compile_many():
    rng = random.Random(5)
    shared = random_smooth_tree(rng, depth=3)
    exprs = [random_smooth_tree(rng, depth=4) for _ in range(6)]
    # Shared subtrees, a variable, a constant, a repeat, a NaN, infinities
    # and a raise where x1 <= 0.
    exprs += [Add(shared, exprs[0]), shared, X1, Constant(-0.0), exprs[1], parse("1e400 - 1e400"), parse("1e400*x2")]
    exprs.append(parse("log(x1)"))
    fused, sweep = compile_many(exprs), compile_sweep(exprs)
    fresh = [math.inf, -math.inf, False] * len(exprs)
    points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(60)]
    defined, undefined = [], []
    for p in points:
        # Over one point, lo and hi are the value itself; a NaN sets only its flag.
        try:
            row = fused(*p)
        except EVAL_ERRORS:
            assert sweep(iter([p]), fresh) == (fresh, p)
            undefined.append(p)
            continue
        state, raised = sweep(iter([p]), fresh)
        assert raised is None
        want = [x for v in row for x in ((v, v, False) if v == v else (math.inf, -math.inf, True))]
        assert _bits(state) == _bits(want)
        defined.append(p)
    assert len(defined) >= 30 and undefined
    # Over many, it stops at the first undefined point and leaves the rest unread.
    stream = iter(defined[:20] + undefined + defined[20:])
    state, raised = sweep(stream, fresh)
    assert raised == undefined[0] and next(stream) == (undefined + defined[20:])[1]
    assert _bits(state) == _bits(sweep(iter(defined[:20]), fresh)[0])


def test_structurally_equal_subtrees_compile_once():
    def block():
        # Built anew on every call: equal in structure, distinct objects.
        return Mul(Apply("sin", X1), Add(X2, Constant(1.0)))

    e = Add(block(), Mul(block(), block()))
    fn = compile_expr(e)
    # Distinct non-leaf shapes: sin(x1), x2 + 1, their product, the
    # product of two blocks, and the root sum: one call and four binary
    # operations.  The arguments are x1, x2 and the one constant; the
    # block, read three times, and the root get locals, and the
    # operations read once are inlined.
    code = fn.__code__
    instructions = list(dis.get_instructions(code))
    assert [i.argval for i in instructions if i.opname == "LOAD_GLOBAL"] == ["_fn_sin"]
    assert sum(i.opname.startswith("BINARY_") for i in instructions) == 4
    assert code.co_argcount == 3
    assert code.co_nlocals - code.co_argcount == 2
    p = (0.3, -0.7)
    assert fn(*p) == evaluate(e, p)


def test_compiled_kernel_leaves_no_reference_cycles():
    e = parse("exp(x1) * (x2 + 1) / (1 + x1^2) + 1e400")
    gc.collect()
    gc.disable()
    try:
        fn = compile_expr(e)
        assert fn(0.5, 0.5) == evaluate(e, (0.5, 0.5))
        del fn
        compile_many([e, e])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_inline_small_powers_are_bit_identical_to_int_pow():
    rng = random.Random(2026)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf, -math.inf, math.nan, 1.0, -1.0, 1e154, -1e300]
    randoms = [math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-1074, 1024)) for _ in range(300)]
    randoms += [rng.uniform(-10.0, 10.0) for _ in range(300)]
    for n in range(1, 9):
        # A leaf base, a local and a literal, with the base value at v.
        cases = [
            (Pow(X1, Constant(n)), lambda v: v),
            (Pow(-X1, Constant(n)), lambda v: -v),
            (Pow(Constant(-1.5), Constant(n)), lambda v: -1.5),
        ]
        for e, base in cases:
            fn = compile_expr(e)
            assert "_int_pow" not in fn.__code__.co_names
            for v in specials + randoms:
                assert _bits([fn(v, 0.0)]) == _bits([_int_pow(base(v), n)]), (n, v)
    for n in (0, 9, -2, 1024):
        assert "_int_pow" in compile_expr(Pow(X1, Constant(n))).__code__.co_names


def test_integer_power_beyond_the_cap_is_fast_and_matches_evaluate():
    start = time.perf_counter()
    for text in ("x1^2000000000", "x1^2000000001", "x1^-2000000000", "x1^1025"):
        e = parse(text)
        fn = compile_expr(e)
        for x1 in (0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0):
            p = (x1, 0.0)
            try:
                want = evaluate(e, p)
            except EvaluationError:
                with pytest.raises(EVAL_ERRORS):
                    fn(x1, 0.0)
                continue
            assert _bits([fn(x1, 0.0)]) == _bits([want]), (text, x1)
    assert time.perf_counter() - start < 1.0
    # Overflow reads as the infinity repeated multiplication reaches.
    assert compile_expr(parse("x1^2000000001"))(-1.5, 0.0) == -math.inf
    assert compile_expr(parse("x1^2000000000"))(-1.5, 0.0) == math.inf
    assert compile_expr(parse("x1^2000000000"))(0.5, 0.0) == 0.0
    with pytest.raises(EvaluationError, match="zero raised to a negative power"):
        compile_expr(parse("x1^-2000000000"))(0.0, 0.0)


def _ieee(v: float) -> int:
    # float.hex does not tell NaN signs and payloads apart; the IEEE bits do.
    return struct.unpack("<Q", struct.pack("<d", v))[0]


@given(
    st.one_of(
        st.floats(),  # every float: subnormals, NaNs with their payloads and signs
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan]),
        st.floats(0.5, 2.0),  # near 1, where n = 1024 stays finite
        st.floats(-2.0, -0.5),
    ),
    st.integers(-1024, 1024),
)
@example(1.001, 400)
@example(-1.7, 1023)
@example(2.875876400983461e-225, -2)  # the square underflows to 0.0
@example(-2.875876400983461e-225, -3)  # the cube underflows to -0.0
@settings(max_examples=1000)
def test_int_pow_is_the_repeated_multiplication_loop(base, n):
    if n < 0 and base == 0.0:
        with pytest.raises(EvaluationError, match="zero raised to a negative power"):
            _int_pow(base, n)
        return
    acc = 1.0
    for _ in range(abs(n)):
        acc *= base
    if n < 0:
        # 1.0 / acc in IEEE arithmetic: a signed zero gives the infinity of its sign.
        acc = 1.0 / acc if acc != 0.0 else math.copysign(math.inf, acc)
    assert _ieee(_int_pow(base, n)) == _ieee(acc)


def test_a_negative_power_that_underflows_is_a_signed_infinity():
    tiny = 2.875876400983461e-225
    assert _int_pow(tiny, -2) == math.inf and _int_pow(-tiny, -2) == math.inf
    assert _int_pow(-tiny, -3) == -math.inf
    # The kernels call _int_pow for exponents outside 1..8.
    assert compile_expr(parse("x1^-2"))(tiny, 0.0) == math.inf
    assert compile_expr(parse("x1^-3"))(-tiny, 0.0) == -math.inf
    # A non-constant exponent reaches it through _pow_value.
    assert compile_expr(parse("x1^x2"))(-tiny, -3.0) == -math.inf


def test_powers_up_to_the_cap_keep_repeated_multiplication():
    # x1^400 overflows to inf on [10, 20] (the NaN-as-zero fault spec).
    for n in (400, 1024):
        fn = compile_expr(Pow(X1, Constant(n)))
        for x1 in (0.99, 1.001, 1.7, 10.5):
            acc = 1.0
            for _ in range(n):
                acc *= x1
            assert _bits([fn(x1, 0.0)]) == _bits([acc]) == _bits([_int_pow(x1, n)])
