"""Hash-consed expression nodes: one live node per structure, memos of
simplify and differentiate that agree with the rules applied afresh
(differentiate's with the reference derivative, simplified), and no
reference cycles."""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import math
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciplane import cli, expr
from ricciplane.expr import (
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
    Var,
    X1,
    X2,
    _rule,
    compile_expr,
    differentiate,
    parse,
    simplify,
    to_string,
)

from conftest import CORPUS, random_smooth_tree, reference_derivative

_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6).map(Constant),
    st.sampled_from([X1, X2, Constant(0.0), Constant(-0.0), Constant(1.0), Constant(-1.0), Constant(2.0)]),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Negate, sub),
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Pow, sub, sub),
        st.builds(Apply, st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=20,
)


def _rebuilt(e: Expr) -> Expr:
    """The same structure, built again from the leaves up."""
    if isinstance(e, Apply):
        return Apply(e.fn, _rebuilt(e.arg))
    if isinstance(e, Constant):
        return Constant(float.fromhex(e.value.hex()))
    kids = e.children()
    return type(e)(*map(_rebuilt, kids)) if kids else e


def _fresh_simplify(e: Expr) -> Expr:
    """simplify without reading any memo: the same rule, applied bottom up."""
    kids = [_fresh_simplify(k) for k in e.children()]
    return _rule(type(e), *kids, *[None] * (2 - len(kids)), getattr(e, "fn", None)) if kids else e


@given(_trees)
@settings(max_examples=200)
def test_equal_structure_is_one_node(e):
    assert _rebuilt(e) is e
    assert parse(to_string(e)) is parse(to_string(e))


def test_signed_zeros_are_distinct_unequal_nodes_of_value_zero():
    # Nodes compare by identity: the two zeros are two trees.
    assert Constant(-0.0) is not Constant(0.0)
    assert Constant(-0.0) != Constant(0.0)
    assert Constant(-0.0).value == 0.0 and Constant(0.0).value == 0.0
    assert math.copysign(1.0, Constant(-0.0).value) == -1.0
    assert Mul(X1, Constant(-0.0)) is not Mul(X1, Constant(0.0))
    assert Mul(X1, Constant(-0.0)) != Mul(X1, Constant(0.0))
    assert len({Constant(-0.0), Constant(0.0), Mul(X1, Constant(-0.0)), Mul(X1, Constant(0.0))}) == 4
    assert Constant(2) is Constant(2.0)
    assert Constant(math.nan) is Constant(-math.nan)
    assert Add(X1, X2) != Sub(X1, X2)


@given(_trees)
@settings(max_examples=300)
def test_simplify_memo_is_a_fixpoint_equal_to_fresh_simplify(e):
    s = simplify(e)
    assert simplify(s) is s
    assert simplify(e) is s
    assert _fresh_simplify(e) is s
    assert _fresh_simplify(s) is s


@given(_trees, st.sampled_from([Var.X1, Var.X2]))
@settings(max_examples=200)
def test_differentiate_memo_equals_fresh_derivative(e, v):
    d = differentiate(e, v)
    assert differentiate(e, v) is d
    assert _fresh_simplify(reference_derivative(e, v)) is d


@given(_trees)
@settings(max_examples=100)
def test_nodes_lists_each_node_once_children_first_in_creation_order(e):
    order, seen = [], set()

    def preorder(node):
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            for child in node.children():
                preorder(child)

    preorder(e)
    nodes = expr._nodes([e])
    assert len(nodes) == len(order) and {id(n) for n in nodes} == seen
    position = {id(n): k for k, n in enumerate(nodes)}
    assert all(position[id(c)] < position[id(n)] for n in nodes for c in n.children())
    assert [n._serial for n in nodes] == sorted(n._serial for n in order)
    assert nodes[-1] is e


def test_copy_and_pickle_return_the_interned_node():
    e = parse("sin(x1)^2 + exp(-x2)/3")
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_unknown_function_is_rejected():
    with pytest.raises(ValueError):
        Apply("gamma", X1)


def _exercise(rng: random.Random) -> None:
    """Build, simplify, differentiate twice and compile random trees,
    then run a CLI job; keep nothing."""
    for _ in range(30):
        e = random_smooth_tree(rng, depth=4)
        for v in (Var.X1, Var.X2):
            # Second derivatives of sin/cos, sinh/cosh refer back to
            # their first-derivative nodes.
            d2 = simplify(differentiate(simplify(differentiate(e, v)), v))
            compile_expr(d2)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("identities", "oracle"):
            assert cli.main([command, "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--samples", "50"]) == 0


def test_dropped_trees_leave_the_intern_table():
    gc.collect()
    gc.disable()
    try:
        baseline = len(expr._INTERNED)
        _exercise(random.Random(7))
        # Without the cycle collector, only reference counting frees nodes.
        assert len(expr._INTERNED) == baseline
    finally:
        gc.enable()


def test_threads_racing_on_the_intern_table():
    def work(seed: int, out: list) -> None:
        rng = random.Random(seed)
        for _ in range(40):
            e = random_smooth_tree(rng, depth=4)
            out.append(to_string(simplify(differentiate(simplify(e), Var.X1))))

    expected: list = []
    work(11, expected)
    gc.collect()
    baseline = len(expr._INTERNED)
    results = [[] for _ in range(6)]
    threads = [threading.Thread(target=work, args=(11, out)) for out in results]
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
    # A racing insert builds a node that it drops for the one entered
    # first: results stay the same, and no entry outlives its node.
    assert results == [expected] * len(results)
    gc.collect()
    assert len(expr._INTERNED) == baseline


def test_a_racing_insert_gets_the_node_entered_first(monkeypatch):
    # A thread that found no live node builds one; if another thread
    # entered the key meanwhile, that node wins and its entry stays.
    first = Apply("sech", Add(X2, Constant(0.123456789)))
    monkeypatch.setattr(expr, "_live", lambda key: None)
    second = Apply("sech", first.arg)
    monkeypatch.undo()
    assert second is first
    gc.collect()
    assert expr._live((Apply, "sech", first.arg)) is first
    assert Apply("sech", first.arg) is first
