"""The process-wide kernel cache behind compile_expr and compile_many:
one compiled kernel per distinct source, exact on signed zeros and
non-finite constants, bounded, holding no expression node, and safe
under racing threads."""

from __future__ import annotations

import builtins
import gc
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
    Constant,
    EvaluationError,
    Mul,
    Point,
    X1,
    compile_expr,
    compile_many,
    evaluate,
    parse,
)

from conftest import CORPUS, random_smooth_tree


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
    expr._compile_kernel.cache_clear()
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
    expr._compile_kernel.cache_clear()
    p = Point(1.5, -0.25)
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
    assert expr._compile_kernel.cache_info().currsize == 12


def test_cache_stays_within_its_bound():
    expr._compile_kernel.cache_clear()
    bound = expr._KERNEL_CACHE_SIZE
    for i in range(bound + 10):
        e = Add(X1, Constant(float(i)))
        assert compile_expr(e)(0.5, 0.0) == 0.5 + i
        assert expr._compile_kernel.cache_info().currsize <= bound
    assert expr._compile_kernel.cache_info().currsize == bound
    assert expr._compile_kernel.cache_info().maxsize == bound


def test_cache_keeps_no_node_alive():
    gc.collect()
    gc.disable()
    try:
        e = parse("exp(x1) * sinh(x2 + 17.25) / (3.5 + x1^2)")
        nodes = [weakref.ref(e), weakref.ref(e.num)]
        expected = (evaluate(e, Point(0.5, 0.5)), evaluate(e.num, Point(0.5, 0.5)))
        fn = compile_many([e, e.num])
        assert compile_many([e, e.num]) is fn
        del e
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
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                expected = _bits(evaluate(e, p))
            except EvaluationError:
                expected = None
            try:
                got = _bits(compile_expr(e)(*p))
            except EVAL_ERRORS:
                got = None
            out.append(got == expected)

    expr._compile_kernel.cache_clear()
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
    assert expr._compile_kernel.cache_info().currsize <= expr._KERNEL_CACHE_SIZE
