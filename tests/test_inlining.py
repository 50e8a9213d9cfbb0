"""Kernels inline each operation that one operand reads, up to a nesting
cap: deep sums and long single-use chains still compile, and every
value, sweep state and returned point stays bit-identical to the tree
walker (a NaN as NaN), signed zeros, infinities and raising points
included."""

from __future__ import annotations

import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from ricciplane import cli, expr
from ricciplane.expr import (
    EVAL_ERRORS,
    FUNCTIONS,
    Add,
    Apply,
    Constant,
    Div,
    Expr,
    Mul,
    Negate,
    Pow,
    Sub,
    X1,
    X2,
    compile_expr,
    compile_many,
    compile_sweep,
    to_string,
)

from conftest import evaluate


def _bits(v: float) -> int | str:
    """The IEEE bits of `v`, which tell -0.0 from 0.0; every NaN is one
    value.  Where both operands of + or * are NaN, CPython's specialised
    float instructions return the first one's NaN and its generic float
    operations the second one's, so the sign of such a NaN depends on
    how often the code ran, not on the tree."""
    return "nan" if v != v else struct.unpack("<Q", struct.pack("<d", v))[0]


def _walker_row(roots: list[Expr], p) -> list | None:
    """The bits of each root's value at `p` by the tree walker, or None
    where any root is undefined."""
    try:
        return [_bits(evaluate(e, p)) for e in roots]
    except EVAL_ERRORS:
        return None


def _walker_sweep(roots: list[Expr], points: list) -> tuple[list, tuple | None]:
    """The fold of `compile_sweep`, point by point on the walker."""
    state = [math.inf, -math.inf, False] * len(roots)
    for p in points:
        try:
            row = [evaluate(e, p) for e in roots]
        except EVAL_ERRORS:
            return state, p
        for i, v in enumerate(row):
            lo, hi, nan = state[3 * i : 3 * i + 3]
            if not lo <= v <= hi:
                state[3 * i : 3 * i + 3] = [v if v < lo else lo, v if v > hi else hi, nan or v != v]
    return state, None


def _kernel_row(fn, p, single: bool = False) -> list | None:
    try:
        return [_bits(fn(*p))] if single else [_bits(v) for v in fn(*p)]
    except EVAL_ERRORS:
        return None


def _assert_kernels_match_the_walker(roots: list[Expr], points: list) -> None:
    many, singles = compile_many(roots), [compile_expr(e) for e in roots]
    for p in points:
        assert _kernel_row(many, p) == _walker_row(roots, p), p
        for e, fn in zip(roots, singles):
            assert _kernel_row(fn, p, single=True) == _walker_row([e], p), (to_string(e), p)
    state, raised = compile_sweep(roots)(iter(points), [math.inf, -math.inf, False] * len(roots))
    want_state, want_raised = _walker_sweep(roots, points)
    assert [v if type(v) is bool else _bits(v) for v in state] == [v if type(v) is bool else _bits(v) for v in want_state]
    assert (raised is None, raised and [_bits(c) for c in raised]) == (
        want_raised is None, want_raised and [_bits(c) for c in want_raised]
    )


def _deep_sum(terms: int) -> Expr:
    """A left-deep sum: each partial sum is read once, by the next."""
    e = Apply("sin", X2)
    for k in range(1, terms):
        term = Mul(Constant(float(k % 7 + 1)), Pow(X1, Constant(float(k % 3 + 1)))) if k % 2 else Apply("sin", Mul(Constant(float(k)), X2))
        e = Add(e, term)
    return e


def _single_use_chain(depth: int) -> Expr:
    """Each link reads the one before once: sin, a scaling and a shift in turn."""
    e = X1
    for k in range(depth):
        e = Apply("sin", e) if k % 3 == 0 else Mul(e, Constant(float(1 + k % 5))) if k % 3 == 1 else Add(e, X2)
    return e


DEEP_POINTS = [(0.5, 0.75), (-0.25, 1.5), (2.0, -0.0), (1e-3, 3.0)]


def test_a_250_term_sum_and_a_300_deep_chain_compile_and_match_the_walker():
    deep, chain = _deep_sum(250), _single_use_chain(300)
    for roots in ([deep], [chain], [deep, chain, deep.lhs]):
        _assert_kernels_match_the_walker(roots, DEEP_POINTS)
    # Both are inlined, but no line nests more than the cap.
    for e in (deep, chain):
        source = expr._emit(_key_of(e))
        assert max(_nesting(line) for line in source.splitlines()) <= 2 * expr._INLINE_DEPTH + 2
        assert source.count("\n") < 30 + 3 * 300 // expr._INLINE_DEPTH


def _key_of(e: Expr) -> bytes:
    keys = []
    original = expr._template
    expr._template = lambda key: keys.append(key) or original(key)
    try:
        compile_sweep([e])
    finally:
        expr._template = original
    return keys[0]


def _nesting(line: str) -> int:
    depth = deepest = 0
    for c in line:
        depth += (c == "(") - (c == ")")
        deepest = max(deepest, depth)
    return deepest


def test_verify_and_oracle_on_deep_specs_give_a_report(tmp_path, capsys):
    spec = {
        "metric": {"f1": "1 + x1^2", "f2": "2 + x2^2"},
        "field": {"V1": to_string(_deep_sum(250)), "V2": "x1"},
        "domain": {"x1": [0.5, 1.0], "x2": [0.5, 1.0]},
    }
    chain = {"metric": {"f1": "1", "f2": "1"}, "field": {"V1": to_string(_single_use_chain(300)), "V2": "x2"}}
    # The exit codes of the code that emitted one local per node.
    for name, data, codes in (("deep", spec, {"verify": 1, "oracle": 0}), ("chain", chain, {"verify": 1, "oracle": 1})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        for command, code in codes.items():
            assert cli.main([command, "--spec", str(path)]) == code, (name, command)
            out, err = capsys.readouterr()
            assert "Traceback" not in err and json.loads(out)["command"] == command


# ---------------------------------------------------------------------------
# Random DAGs: shared subtrees, single-use chains, special constants and
# points where some node raises
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5, -2.0, 0.5, 3.0, 1e308, 5e-324]
EXPONENTS = [0.0, 1.0, 2.0, 3.0, 9.0, -2.0, 0.5, 2.5]
COORDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 710.0, -1e200]))


def _tree_size(e: Expr, memo: dict) -> int:
    if id(e) not in memo:
        memo[id(e)] = 1 + sum(_tree_size(c, memo) for c in e.children())
    return memo[id(e)]


@st.composite
def dags(draw) -> list[Expr]:
    pool: list[Expr] = [X1, X2] + [Constant(draw(st.sampled_from(SPECIAL))) for _ in range(draw(st.integers(1, 3)))]

    def pick() -> Expr:
        # Any node built so far: a node picked twice is a shared subtree.
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["binary", "negate", "pow", "apply", "chain"]))
        if kind == "binary":
            node = draw(st.sampled_from([Add, Sub, Mul, Div, Pow]))(pick(), pick())
        elif kind == "negate":
            node = Negate(pick())
        elif kind == "pow":
            node = Pow(pick(), Constant(draw(st.sampled_from(EXPONENTS))))
        elif kind == "apply":
            node = Apply(draw(st.sampled_from(sorted(FUNCTIONS))), pick())
        else:
            # A single-use chain, past the nesting cap at times.
            node = pick()
            for _ in range(draw(st.integers(1, 45))):
                step = draw(st.sampled_from(["add", "mul", "sin", "tanh", "neg"]))
                node = (
                    Add(node, X2) if step == "add" else Mul(node, Constant(0.75)) if step == "mul"
                    else Negate(node) if step == "neg" else Apply(step, node)
                )
        pool.append(node)
    # Indices, not nodes: hypothesis caches strategies, and with them their arguments.
    roots = [pool[i] for i in draw(st.lists(st.integers(2, len(pool) - 1), min_size=1, max_size=4))]
    memo: dict = {}
    # The walker visits trees, not DAGs: keep its work bounded.
    if sum(_tree_size(r, memo) for r in roots) > 20_000:
        roots = [pool[-1]] if _tree_size(pool[-1], memo) <= 20_000 else [X1]
    return roots


@given(dags(), st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_inlined_kernels_are_bit_identical_to_the_walker(roots, points):
    _assert_kernels_match_the_walker(roots, points)
