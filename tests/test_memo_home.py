"""One memo home: `simplify` and `differentiate` remember in
the job record, not in node slots; outside a job only for the outermost
call; and `expr` reaches `numeric` only to sample in `is_probably_zero`."""

from __future__ import annotations

import ast
import inspect

import pytest

from ricciplane import expr, numeric
from ricciplane.expr import Add, Expr, Mul, Var, X1, X2, differentiate, simplify


def test_a_node_carries_no_memo_slot():
    assert Expr.__slots__ == ("_serial", "__weakref__")
    for name in ("_memo", "_differentiated", "_job_memo"):
        assert not hasattr(expr, name)


def test_the_memos_sit_in_the_job_record_and_end_with_it():
    e = Add(Mul(X1, X2), Mul(X2, X2))
    with numeric._job_stream():
        job = expr._STREAM.get()
        s, d = simplify(e), differentiate(e, Var.X1)
        assert job[simplify][e] is s and job[simplify][s] is s
        assert job[differentiate, Var.X1][e] is d
        # A derivative is recorded as simplify's fixpoint.
        assert job[simplify][d] is d
        assert differentiate(e, Var.X2) is job[differentiate, Var.X2][e]
        assert job[simplify][job[differentiate, Var.X2][e]] is job[differentiate, Var.X2][e]
        assert numeric._job_stream is expr._job_stream and numeric._STREAM is expr._STREAM
    assert expr._STREAM.get() is None
    # Outside a job each outermost call opens its own record and drops it.
    simplify(e)
    differentiate(e, Var.X2)
    assert expr._STREAM.get() is None


def _imports_from_numeric(node: ast.AST) -> list[ast.ImportFrom]:
    return [n for n in ast.walk(node) if isinstance(n, ast.ImportFrom) and n.module == "numeric" and n.level == 1]


def test_expr_imports_from_numeric_only_to_sample_in_the_zero_test():
    tree = ast.parse(inspect.getsource(expr))
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert not [n for n in ast.walk(functions["differentiate"]) if isinstance(n, (ast.Import, ast.ImportFrom))]
    # Imports for annotations only never run.
    typing_only = [n for block in tree.body if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for n in _imports_from_numeric(block)]
    (only,) = [n for n in _imports_from_numeric(tree) if n not in typing_only]
    assert only in _imports_from_numeric(functions["is_probably_zero"])


def _squaring_tower(levels: int) -> Expr:
    """u = u*u + x1, `levels` times: about 2 nodes per level, 2^levels tree paths."""
    u = X1
    for _ in range(levels):
        u = Add(Mul(u, u), X1)
    return u


@pytest.mark.parametrize("in_job", [True, False])
def test_each_distinct_node_runs_the_rule_a_bounded_number_of_times(in_job, monkeypatch):
    u = _squaring_tower(40)
    nodes = len(expr._nodes([u]))
    assert nodes < 100
    applied = []
    rule = expr._rule
    monkeypatch.setattr(expr, "_rule", lambda *args: applied.append(args) or rule(*args))
    for query in (lambda: simplify(u), lambda: differentiate(u, Var.X1), lambda: differentiate(u, Var.X2)):
        applied.clear()
        if in_job:
            with numeric._job_stream():
                query()
        else:
            query()
        assert applied and len(applied) <= 8 * nodes
