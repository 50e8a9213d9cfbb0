"""The code generator behind compiled evaluation: the value and scale
that the zero test reads from one fused kernel over every node, the
fused multi-expression kernel, structural common-subexpression
elimination, and kernels that leave nothing for the cycle collector."""

from __future__ import annotations

import gc
import random

from ricciplane.expr import (
    EVAL_ERRORS,
    Add,
    Constant,
    EvaluationError,
    Mul,
    Point,
    X1,
    X2,
    compile_expr,
    compile_many,
    evaluate_with_scale,
    parse,
    sin,
    walk,
)

from conftest import random_smooth_tree


def _bits(values) -> tuple[str, ...]:
    # float.hex tells -0.0 from 0.0, which == does not.
    return tuple(float(v).hex() for v in values)


def _value_and_scale(row) -> tuple[float, float]:
    # What `is_probably_zero` reads from its kernel over `list(walk(e))`.
    return row[0], max(map(abs, row))


def test_scaled_kernel_is_bit_identical_to_evaluate_with_scale():
    rng = random.Random(2006)
    checked = 0
    while checked < 48:
        e = random_smooth_tree(rng, depth=5)
        fn = compile_many(list(walk(e)))
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            expected = evaluate_with_scale(e, p)
        except EvaluationError:
            try:
                fn(p.x1, p.x2)
            except EVAL_ERRORS:
                continue
            raise AssertionError(f"compiled kernel is defined where {e} is not")
        assert _bits(_value_and_scale(fn(p.x1, p.x2))) == _bits(expected), str(e)
        checked += 1


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


def test_structurally_equal_subtrees_compile_once():
    def block():
        # Built anew on every call: equal in structure, distinct objects.
        return Mul(sin(X1), Add(X2, Constant(1.0)))

    e = Add(block(), Mul(block(), block()))
    fn = compile_expr(e)
    # Distinct non-leaf shapes: sin(x1), x2 + 1, their product, the
    # product of two blocks, and the root sum; plus the arguments x1, x2.
    assert fn.__code__.co_nlocals == 2 + 5
    p = Point(0.3, -0.7)
    assert fn(p.x1, p.x2) == evaluate_with_scale(e, p)[0]


def test_compiled_kernel_leaves_no_reference_cycles():
    e = parse("exp(x1) * (x2 + 1) / (1 + x1^2) + 1e400")
    gc.collect()
    gc.disable()
    try:
        fn = compile_expr(e)
        assert fn(0.5, 0.5) == evaluate_with_scale(e, Point(0.5, 0.5))[0]
        del fn
        compile_many([e, e])
        assert gc.collect() == 0
    finally:
        gc.enable()
