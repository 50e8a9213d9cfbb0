"""Expression engine: parsing, differentiation, simplification,
evaluation, and the probabilistic zero test."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciplane import expr, numeric
from ricciplane.expr import (
    EVAL_ERRORS,
    Add,
    Apply,
    CHAIN_RULES,
    Constant,
    Div,
    Domain,
    EvaluationError,
    FUNCTIONS,
    Mul,
    Negate,
    ParseError,
    Pow,
    Sub,
    Var,
    X1,
    X2,
    compile_expr,
    differentiate,
    is_probably_zero,
    parse,
    simplify,
    to_string,
)
from ricciplane.numeric import SamplingConfig

from conftest import REFERENCE_CHAIN_RULES, evaluate, fd_partial, random_smooth_tree, reference_derivative, usable_point


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_function_application():
    assert parse("exp(x1)") == Apply("exp", X1)
    assert parse("cosh(x1)") == Apply("cosh", X1)


def test_parse_is_purely_syntactic():
    # the division is undefined at x2 = 0, but parsing succeeds
    e = parse("1/(2*x2)")
    assert e == Div(Constant(1.0), Mul(Constant(2.0), X2))
    with pytest.raises(ZeroDivisionError):
        compile_expr(e)(0.0, 0.0)


def test_parse_precedence_and_associativity():
    assert parse("x1 + x2*x1") == Add(X1, Mul(X2, X1))
    # ^ is right-associative
    assert parse("2^3^2") == Pow(Constant(2.0), Pow(Constant(3.0), Constant(2.0)))
    assert parse("(2^3)^2") == Pow(Pow(Constant(2.0), Constant(3.0)), Constant(2.0))
    # unary minus binds tighter than * but looser than ^
    assert parse("-x1*x2") == Mul(Negate(X1), X2)
    assert parse("-x1^2") == Negate(Pow(X1, Constant(2.0)))
    assert parse("-2^2") == Negate(Pow(Constant(2.0), Constant(2.0)))
    assert parse("-2*3") == Mul(Constant(-2.0), Constant(3.0))


def test_parse_subtraction_is_left_associative():
    a, b, c = Constant(1.0), Constant(2.0), Constant(3.0)
    assert parse("1-2-3") == Sub(Sub(a, b), c)
    assert parse("1-(2-3)") == Sub(a, Sub(b, c))


def test_parse_scientific_literals():
    assert parse("1e-6") == Constant(1e-6)
    assert parse("2.5e+3") == Constant(2500.0)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("exp(x1")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("x1 + ")
    assert "end of input" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("2*@3")
    assert err.value.position == 2


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x3'"):
        parse("x3 + 1")
    with pytest.raises(ParseError, match="unknown identifier 'foo'"):
        parse("foo(x1)")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def test_differentiate_exponential_fixed_point():
    assert simplify(differentiate(Apply("exp", X1), Var.X1)) == Apply("exp", X1)


def test_differentiate_product_with_constant_factor():
    e = Mul(Pow(X1, Constant(2.0)), Apply("sin", X2))
    assert simplify(differentiate(e, Var.X2)) == Mul(Pow(X1, Constant(2.0)), Apply("cos", X2))


def test_differentiate_cosh_at_origin():
    d = differentiate(Apply("cosh", X1), Var.X1)
    assert compile_expr(d)(0.0, 0.0) == 0.0
    assert simplify(d) == Apply("sinh", X1)


def test_differentiate_is_total_on_abs_and_sign():
    # The rules as they stand: both derivatives are an error where u vanishes.
    d_abs = reference_derivative(Apply("abs", X1), Var.X1)
    assert compile_expr(d_abs)(2.0, 0.0) == 1.0
    assert compile_expr(d_abs)(-2.0, 0.0) == -1.0
    with pytest.raises(EvaluationError):
        compile_expr(d_abs)(0.0, 0.0)
    d_sign = reference_derivative(Apply("sign", X1), Var.X1)
    assert compile_expr(d_sign)(1.5, 0.0) == 0.0
    with pytest.raises(EvaluationError):
        compile_expr(d_sign)(0.0, 0.0)
    # Simplified, abs(u)' is sign(u)*u', still an error at 0, and sign(u)' is 0, defined there.
    assert differentiate(Apply("abs", X1), Var.X1) is Apply("sign", X1)
    assert differentiate(Apply("sign", X1), Var.X1) is Constant(0.0)
    assert compile_expr(differentiate(Apply("sign", X1), Var.X1))(0.0, 0.0) == 0.0


# The unsimplified chain rule of each function, on u = x1*x2 + 2.
CHAIN_RULE_TEXTS = {
    "exp": "exp(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
    "log": "(1*x2 + x1*0 + 0)/(x1*x2 + 2)",
    "sin": "cos(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
    "cos": "-(sin(x1*x2 + 2)*(1*x2 + x1*0 + 0))",
    "tan": "(1 + tan(x1*x2 + 2)^2)*(1*x2 + x1*0 + 0)",
    "sinh": "cosh(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
    "cosh": "sinh(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
    "tanh": "(1 - tanh(x1*x2 + 2)^2)*(1*x2 + x1*0 + 0)",
    "sech": "-(sech(x1*x2 + 2)*tanh(x1*x2 + 2)*(1*x2 + x1*0 + 0))",
    "sqrt": "(1*x2 + x1*0 + 0)/(2*sqrt(x1*x2 + 2))",
    "abs": "sign(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
    "sign": "0*sign(x1*x2 + 2)*(1*x2 + x1*0 + 0)",
}


def test_every_function_has_one_chain_rule():
    assert set(CHAIN_RULES) == set(FUNCTIONS) == set(CHAIN_RULE_TEXTS) == set(REFERENCE_CHAIN_RULES)


@pytest.mark.parametrize("fn", sorted(CHAIN_RULE_TEXTS))
def test_chain_rule_text(fn):
    e = Apply(fn, parse("x1*x2 + 2"))
    assert to_string(reference_derivative(e, Var.X1)) == CHAIN_RULE_TEXTS[fn]
    assert differentiate(e, Var.X1) is simplify(reference_derivative(e, Var.X1))


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def test_simplify_identity_elements():
    assert simplify(parse("(x1*1) + 0")) == X1


def test_simplify_constant_folding():
    assert simplify(parse("2*3")) == Constant(6.0)
    assert simplify(parse("2*(3*4) + 1")) == Constant(25.0)


def test_simplify_does_no_trig_rewriting():
    e = parse("sin(x1)^2 + cos(x1)^2")
    assert simplify(e) == e


def test_simplify_structural_cancellation():
    assert simplify(Sub(Apply("cosh", X1), Apply("cosh", X1))) == Constant(0.0)
    assert simplify(Div(Apply("exp", X2), Apply("exp", X2))) == Constant(1.0)
    assert simplify(Negate(Negate(X1))) == X1


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert compile_expr(Apply("exp", X1))(0.0, 5.0) == 1.0
    e = parse("cosh(x1)*sinh(x1) - cosh(x1)^2")
    assert compile_expr(e)(0.0, 0.0) == -1.0


def test_evaluate_power_semantics():
    # integer exponents use repeated multiplication: negative bases fine
    assert compile_expr(parse("(-2)^3"))(0, 0) == -8.0
    assert compile_expr(parse("x1^0"))(0.0, 0.0) == 1.0
    assert compile_expr(parse("2^-2"))(0, 0) == 0.25
    # non-integer exponents need a positive base
    assert compile_expr(parse("2^0.5"))(0, 0) == math.sqrt(2.0)
    with pytest.raises(EvaluationError):
        compile_expr(parse("(-2)^0.5"))(0, 0)
    with pytest.raises(EvaluationError):
        compile_expr(parse("x1^-1"))(0.0, 0.0)


def test_evaluate_is_deterministic():
    e = parse("exp(sin(x1*x2)) / (2 + cos(x1))")
    p = (0.7301, -0.4142)
    values = {compile_expr(e)(*p) for _ in range(5)}
    assert len(values) == 1


def test_compiled_matches_reference_evaluator():
    rng = random.Random(1759)
    checked = 0
    while checked < 40:
        e = random_smooth_tree(rng, depth=5)
        p = usable_point(e, rng)
        if p is None:
            continue
        fn = compile_expr(e)
        assert fn(*p) == evaluate(e, p)
        checked += 1


# ---------------------------------------------------------------------------
# Probabilistic zero test
# ---------------------------------------------------------------------------


def test_is_probably_zero_pythagorean_identity():
    e = parse("sin(x1)^2 + cos(x1)^2 - 1")
    assert is_probably_zero(e, Domain(), SamplingConfig()) is True


def test_is_probably_zero_rejects_nonzero():
    assert is_probably_zero(parse("x1*x2"), Domain(), SamplingConfig()) is False


def test_is_probably_zero_seed_deterministic():
    e = parse("x1*x2*1e-9")
    d = Domain()
    first = is_probably_zero(e, d, SamplingConfig(samples=50, seed=7, tolerance=1e-9))
    second = is_probably_zero(e, d, SamplingConfig(samples=50, seed=7, tolerance=1e-9))
    assert first == second


def test_is_probably_zero_guards_denominators():
    # 1/x1 - 1/x1 is undefined on the x1 = 0 line but zero elsewhere
    e = parse("1/x1 - 1/x1")
    assert is_probably_zero(e, Domain(), SamplingConfig()) is True


def test_is_probably_zero_stops_once_the_answer_is_fixed(monkeypatch):
    # The verdict is False at the first point and half the requested
    # points make the sample large enough, so 100 evaluations decide,
    # and nothing is swept.  When the first point reads as zero, one
    # sweep of e with its finiteness folds (none here) and its variable
    # decides or counts the evaluable points, and the per-point reading
    # stops at the first point that is not zero.
    calls = 0
    swept = []
    extrema = numeric._extrema
    monkeypatch.setattr(numeric, "_extrema", lambda groups, points: swept.append(groups) or extrema(groups, points))
    compile_many = expr.compile_many

    def counting(exprs):
        kernel = compile_many(exprs)

        def counted(x1, x2):
            nonlocal calls
            calls += 1
            return kernel(x1, x2)

        return counted

    monkeypatch.setattr(expr, "compile_many", counting)
    cfg = SamplingConfig(samples=200)
    assert is_probably_zero(parse("x1 + 2"), Domain(), cfg) is False
    assert (calls, swept) == (100, [])
    # Zero within tolerance at every point: the sweep decides.
    e = parse("sin(x1)^2 + cos(x1)^2 - 1")
    calls = 0
    assert is_probably_zero(e, Domain(), cfg) is True
    assert expr._finiteness_folds(e) == []
    assert (calls, swept) == (1, [[[e], [X1]]])
    # Zero at the first point (x1 = 0.279), not at the second (x1 = -0.450).
    e = parse("x1 - abs(x1)")
    calls, swept[:] = 0, []
    assert is_probably_zero(e, Domain(), cfg) is False
    assert expr._finiteness_folds(e) == []
    assert (calls, swept) == (2, [[[e], [X1]]])
    # Within tol * (1 + scale) at every point but above tol at some: the
    # sweep cannot accept, so every point is read.
    calls, swept[:] = 0, []
    assert is_probably_zero(parse("x1 + 10000000000 - 10000000000 - x1"), Domain(), cfg) is True
    assert (calls, len(swept)) == (200, 1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_fd_oracle_property():
    # 50 random trees of depth <= 6, 20 points each, both variables:
    # the symbolic derivative agrees with a central difference.
    rng = random.Random(20250802)
    h = 1e-5
    trees = 0
    attempts = 0
    while trees < 50:
        attempts += 1
        assert attempts < 500, "tree generator starved"
        e = random_smooth_tree(rng, depth=6)
        points = []
        for _ in range(200):
            p = usable_point(e, rng, scale_cap=50.0, tries=1)
            if p is not None:
                points.append(p)
            if len(points) == 20:
                break
        if len(points) < 20:
            continue
        trees += 1
        for v in (Var.X1, Var.X2):
            deriv = differentiate(e, v)
            for p in points:
                try:
                    sym = evaluate(deriv, p)
                    fd = fd_partial(e, p, v, h)
                except EVAL_ERRORS:
                    continue
                assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym)), to_string(e)


_constants = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
).map(Constant)
_leaves = st.one_of(_constants, st.sampled_from([X1, X2]))
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
    max_leaves=25,
)


@given(_trees)
@settings(max_examples=300)
def test_print_parse_round_trip(e):
    assert parse(to_string(e)) is e


def test_negative_zero_prints_as_minus_zero_at_unary_precedence():
    assert to_string(Constant(-0.0)) == "-0" and to_string(Constant(0.0)) == "0"
    assert to_string(Pow(Constant(-0.0), X1)) == "(-0)^x1"
    assert to_string(Sub(X1, Constant(-0.0))) == "x1 - -0"
    for e in (Constant(-0.0), Negate(Constant(-0.0)), Pow(Constant(-0.0), X1), Mul(X1, Constant(-0.0))):
        assert parse(to_string(e)) is e


def test_infinite_constants_print_as_overflowing_literals():
    assert to_string(parse("1e400")) == "1e999"
    assert to_string(Constant(-math.inf)) == "-1e999"
    folded = simplify(parse("1e200*1e200*x1"))
    assert to_string(folded) == "1e999*x1" and parse(to_string(folded)) is folded
    assert to_string(parse("x1 - -1e400")) == "x1 - -1e999"
    for e in (Constant(math.inf), Constant(-math.inf), Negate(Constant(math.inf)), Pow(Constant(-math.inf), X1)):
        assert parse(to_string(e)) is e


def test_simplify_preserves_value():
    rng = random.Random(991)
    checked = 0
    while checked < 100:
        e = random_smooth_tree(rng, depth=5)
        p = usable_point(e, rng)
        if p is None:
            continue
        s = simplify(e)
        assert evaluate(s, p) == evaluate(e, p), to_string(e)
        checked += 1


def test_point_and_domain_validation():
    with pytest.raises(ValueError):
        Domain(x1_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        Domain(guard=0.0)

