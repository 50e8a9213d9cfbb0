"""The derivative built in one pass: `differentiate(e, v)` is the node
`simplify` makes of the reference derivative, each of its nodes built by
the one simplify rule `_rule` and its own fixpoint; and `verify` and
`oracle` on deep specs, whose derivatives skip the unsimplified tree,
reach at least as deep as before."""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import ricciplane
from ricciplane import expr
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
    differentiate,
    simplify,
    to_string,
)

from conftest import reference_derivative
from test_intern import _fresh_simplify
from test_inlining import _deep_sum, _single_use_chain

CONSTANTS = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.25, math.inf, -math.inf, math.nan]
EXPONENTS = [0.0, 1.0, 2.0, -2.0, 0.5]


@st.composite
def dags(draw) -> Expr:
    """A random DAG over both variables and special constants, built with
    the plain constructors (so unsimplified), whose nodes may share
    subtrees: every function, Div, Negate, and powers to constant and
    non-constant exponents."""
    pool: list[Expr] = [X1, X2] + [Constant(draw(st.sampled_from(CONSTANTS))) for _ in range(draw(st.integers(1, 3)))]

    def pick() -> Expr:
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["binary", "negate", "pow", "apply"]))
        if kind == "binary":
            node = draw(st.sampled_from([Add, Sub, Mul, Div, Pow]))(pick(), pick())
        elif kind == "negate":
            node = Negate(pick())
        elif kind == "pow":
            node = Pow(pick(), Constant(draw(st.sampled_from(EXPONENTS))))
        else:
            node = Apply(draw(st.sampled_from(sorted(FUNCTIONS))), pick())
        pool.append(node)
    # An index, not a node: hypothesis caches strategies with their arguments.
    return pool[draw(st.integers(2, len(pool) - 1))]


@given(dags(), st.sampled_from([Var.X1, Var.X2]))
@settings(max_examples=300, deadline=None)
def test_differentiate_is_simplify_of_the_reference(e, v):
    outputs = []
    rule = expr._rule
    try:
        expr._rule = lambda *args, **kw: outputs.append(rule(*args, **kw)) or outputs[-1]
        d = differentiate(e, v)
        # A second derivative: the first is simplified, with negations in it.
        dd = differentiate(d, v)
    finally:
        expr._rule = rule
    assert d is simplify(reference_derivative(e, v))
    assert d is _fresh_simplify(reference_derivative(e, v))
    assert differentiate(e, v) is d
    assert dd is simplify(reference_derivative(d, v))
    # Each output is recorded as simplify's fixpoint, so check that
    # against the rule applied afresh.  differentiate reads the module's
    # `_rule`: only a derivative taken from leaf rules alone, 0 or 1,
    # leaves the list empty.
    assert outputs or d is Constant(0.0) or d is Constant(1.0)
    for s in outputs:
        assert simplify(s) is s
        assert _fresh_simplify(s) is s


def test_the_power_rule_is_chosen_on_the_unsimplified_exponent():
    u = Add(Mul(X1, X2), Constant(3.0))
    two = Add(Constant(1.0), Constant(1.0))
    general, constant = Pow(u, two), Pow(u, Constant(2.0))
    assert simplify(general) is constant
    # u^(1+1) takes the general rule, u^w (w' log u + w u'/u); u^2 the constant one.
    assert to_string(differentiate(general, Var.X1)) == "(x1*x2 + 3)^2*(2*(x2/(x1*x2 + 3)))"
    assert to_string(differentiate(constant, Var.X1)) == "2*(x1*x2 + 3)*x2"
    for e in (general, constant):
        assert differentiate(e, Var.X1) is simplify(reference_derivative(e, Var.X1))
        assert differentiate(e, Var.X2) is simplify(reference_derivative(e, Var.X2))


def test_a_rule_that_reads_its_node_reads_it_simplified():
    # exp(0*x1 + x2): the rule reads e and its argument, both simplified.
    e = Apply("exp", Add(Mul(Constant(0.0), X1), X2))
    assert differentiate(e, Var.X2) is Apply("exp", X2)
    assert differentiate(e, Var.X1) is Constant(0.0)
    # A constant argument folds: tanh(2*0.5)' is 0, whatever tanh(1) is.
    f = Apply("tanh", Mul(Mul(Constant(2.0), Constant(0.5)), X1))
    assert differentiate(f, Var.X1) is simplify(reference_derivative(f, Var.X1))


def test_differentiate_is_the_one_derivative_builder():
    for name in ("derive", "_build", "_as_built"):
        assert not hasattr(expr, name)
    assert list(inspect.signature(expr._derivative_rule).parameters) == ["e", "v", "da", "db"]
    for rule in expr.CHAIN_RULES.values():
        assert list(inspect.signature(rule).parameters) == ["e", "u", "du"]
    assert ricciplane.differentiate is differentiate


# The deepest single-use chain and left-deep sum that `verify` reported
# on before derivatives were built in one pass, the least of Python
# 3.10, 3.11 and 3.12, each job a fresh interpreter started with -c.
# Deeper, the derivative recursion reached the recursion limit.
DEEPEST_CHAIN = 736
DEEPEST_SUM = 981


def _run(tmp_path: Path, command: str, name: str, spec: dict) -> subprocess.CompletedProcess:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(Path(ricciplane.__file__).resolve().parent.parent))
    program = "import sys; from ricciplane.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", program, command, "--spec", str(path)], env=env, capture_output=True, text=True)


def _chain_spec(depth: int) -> dict:
    return {"metric": {"f1": "1", "f2": "1"}, "field": {"V1": to_string(_single_use_chain(depth)), "V2": "x2"}}


def test_verify_reports_on_specs_as_deep_as_before(tmp_path):
    deep_sum = {
        "metric": {"f1": "1 + x1^2", "f2": "2 + x2^2"},
        "field": {"V1": to_string(_deep_sum(DEEPEST_SUM)), "V2": "x1"},
        "domain": {"x1": [0.5, 1.0], "x2": [0.5, 1.0]},
    }
    # The oracle differentiates R1-R4 a second time, through the builder the curvature used.
    for command in ("verify", "oracle"):
        for name, spec in (("chain", _chain_spec(DEEPEST_CHAIN)), ("sum", deep_sum)):
            done = _run(tmp_path, command, name, spec)
            assert done.returncode in (0, 1) and "Traceback" not in done.stderr, (command, name, done.stderr[-500:])
            assert json.loads(done.stdout)["command"] == command
        done = _run(tmp_path, command, "too-deep", _chain_spec(2000))
        assert done.returncode == 2 and done.stdout == "", command
        assert "expression nested too deeply" in done.stderr and "Traceback" not in done.stderr
