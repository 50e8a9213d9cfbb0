"""Symbolic-layer passes that are linear in distinct nodes: code
generation and denominator collection list the DAG under all their
roots once (`_nodes`), `to_string` renders each distinct node once
without recursion, and the curvature identity builds only the covariant
rows it reads."""

from __future__ import annotations

import math
import random
import struct
import tracemalloc

import pytest

from ricciplane import expr
from ricciplane.expr import (
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
    Variable,
    X1,
    X2,
    _nodes,
    compile_expr,
    compile_many,
    compile_sweep,
    denominators,
    differentiate,
    kink_arguments,
    parse,
    simplify,
    to_string,
)
from ricciplane.geometry import DiagonalMetric, frame_derivative, lie_bracket, ricci
from ricciplane.identities import _curvature_identity_residuals
from ricciplane.numeric import SamplingConfig, merge_guards
from ricciplane.riccifield import FrameField, covariant_matrix, covariant_row

from conftest import PASSING_CORPUS, draw_constructed, evaluate, load_corpus_pair, random_smooth_tree


@pytest.fixture
def children_calls(monkeypatch) -> list:
    """Counts every `children()` call: one entry per call."""
    calls = []
    for cls in (Expr, Negate, expr._Binary, Apply):
        original = cls.__dict__["children"]

        def counted(self, _original=original):
            calls.append(self)
            return _original(self)

        monkeypatch.setattr(cls, "children", counted)
    return calls


def _shared_roots() -> list[Expr]:
    """Many roots over one DAG: the curvature-identity residuals of a
    family pair, every node under them, and roots repeated."""
    [(_, _, m, V)] = draw_constructed("branch2", 1, 4711, SamplingConfig())
    residuals = _curvature_identity_residuals(m, V) + [ricci(m).rho, V.V1, V.V2]
    return residuals + _nodes(residuals) + residuals


def test_compile_many_calls_children_once_per_distinct_node(children_calls):
    roots = _shared_roots()
    distinct = len({id(n) for r in roots for n in _nodes([r])})
    assert len(roots) > 100 and distinct > 50
    compile_many(roots)  # the kernel is compiled, or taken from the cache
    children_calls.clear()
    compile_many(roots)
    assert 0 < len(children_calls) <= distinct
    children_calls.clear()
    compile_expr(roots[0])
    assert len(children_calls) <= len(_nodes([roots[0]]))


def test_compile_sweep_calls_children_once_per_distinct_node(children_calls):
    roots = _shared_roots()
    distinct = len({id(n) for r in roots for n in _nodes([r])})
    children_calls.clear()
    compile_sweep(roots)  # the kernel is compiled, or taken from the cache
    assert 0 < len(children_calls) <= distinct
    children_calls.clear()
    compile_sweep(roots)
    assert 0 < len(children_calls) <= distinct


def test_merge_guards_calls_children_once_per_distinct_node(children_calls):
    roots = _shared_roots()
    distinct = len({id(n) for r in roots for n in _nodes([r])})
    children_calls.clear()
    merge_guards(roots[:2], roots)
    assert 0 < len(children_calls) <= distinct


def _under(root: Expr) -> dict[int, Expr]:
    """Each distinct node under `root`, by id, in preorder from a stack
    of its own: an order that depends on the tree alone, not on when
    its nodes were made."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack += node.children()[::-1]
    return found


def test_nodes_of_several_roots_is_each_distinct_node_once_in_creation_order():
    rng = random.Random(77)
    for _ in range(40):
        roots = _random_group(rng)
        distinct = {}
        for r in roots:
            distinct.update(_under(r))
        nodes = _nodes(roots)
        assert [id(n) for n in nodes] == [id(n) for n in sorted(distinct.values(), key=lambda n: n._serial)]
        position = {id(n): k for k, n in enumerate(nodes)}
        assert all(position[id(c)] < position[id(n)] for n in nodes for c in n.children())
    assert _nodes([]) == []


def test_every_reader_lists_in_node_order(monkeypatch):
    # `kink_arguments`, like `denominators` (pinned with the kernel
    # sources below), lists in the `_nodes` order of the nodes it reads:
    # each new item appears at its own node, so it is the per-node
    # composition in that order.  The rows of `evaluate_with_scale` and
    # `is_probably_zero` are `_nodes` reversed, `e` first.
    rng = random.Random(78)
    for _ in range(40):
        roots = _random_group(rng) + [parse("abs(x1 - 0.5)*sign(x2)/abs(x1*x2 + 2)")]
        e = roots[-1] * Apply("abs", roots[0])
        per_node = [k for n in _nodes([e]) for k in kink_arguments(n)]
        assert [id(k) for k in kink_arguments(e)] == [id(k) for k in dict.fromkeys(per_node)]
    rows, compile_many = [], expr.compile_many
    monkeypatch.setattr(expr, "compile_many", lambda exprs: rows.append(list(exprs)) or compile_many(exprs))
    e = parse("exp(x1)*x2 + x1/(x2 + 3)")
    expr.evaluate_with_scale(e, (0.5, 0.25))
    assert not expr.is_probably_zero(e, expr.Domain(), SamplingConfig(samples=20))
    assert [[id(n) for n in row] for row in rows] == [[id(n) for n in _nodes([e])[::-1]]] * 2
    assert rows[0][0] is e


def _random_group(rng: random.Random) -> list[Expr]:
    """Roots that share subtrees: random trees, their derivatives, some
    of their own subtrees, and guarded quotients of them."""
    trees = [random_smooth_tree(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    roots = list(trees)
    roots += [simplify(differentiate(t, rng.choice([Var.X1, Var.X2]))) for t in trees[:2]]
    inner = list(_under(trees[0]).values())
    roots += rng.sample(inner, min(3, len(inner)))
    roots.append(Div(trees[-1], Pow(roots[rng.randrange(len(roots))], Constant(-3.0))))
    roots.append(roots[0])
    return roots


# The per-root composition the one-pass listings replace: one listing
# per root, each with its own seen-set.


def _per_root_source(exprs: list[Expr], single: bool) -> str:
    nodes: dict[int, Expr] = {}
    for e in exprs:
        nodes.update((id(n), n) for n in _nodes([e]))
    order = sorted(nodes.values(), key=lambda n: n._serial)
    # How many operands of the code read each node: a power spelled out
    # as b*b*b reads its base three times.
    reads: dict[int, int] = {}
    for node in order:
        kids = node.children()
        if isinstance(node, Pow) and _spelled_out(node.exponent):
            n = int(node.exponent.value)
            kids = [node.base] * (n if 1 <= n <= 8 else 1)
        for k in kids:
            reads[id(k)] = reads.get(id(k), 0) + 1
    outputs = {id(e) for e in exprs}
    # Operations whose code reads the same (`Pow(t, 0.0)`, `Pow(t, -0.0)`) share one local.
    # A constant is the parameter `_k{slot}`, its slot numbered at its
    # first read by an operation (in creation order), then by a root.
    consts, lines, names, depth, reused = {}, [], {}, {}, {}

    def name_of(n: Expr) -> str:
        return f"_k{consts.setdefault(id(n), len(consts))}" if isinstance(n, Constant) else names[id(n)]

    for node in order:
        if isinstance(node, Constant):
            continue
        if isinstance(node, Variable):
            name = node.var.value
        else:
            read = [node.base] if isinstance(node, Pow) and _spelled_out(node.exponent) else node.children()
            text = _per_root_operation(node, [name_of(c) for c in read])
            d = 1 + max(depth.get(id(c), 0) for c in node.children())
            if id(node) not in outputs and reads[id(node)] == 1 and d <= expr._INLINE_DEPTH:
                name, depth[id(node)] = f"({text})", d
            else:
                if text not in reused:
                    reused[text] = f"t{len(lines)}"
                    lines.append(f"    {reused[text]} = {text}\n")
                name = reused[text]
        names[id(node)] = name
    outs = [name_of(e) for e in exprs]
    result = outs[0] if single else "(" + "".join(f"{o}, " for o in outs) + ")"
    params = "".join(f", _k{i}" for i in range(len(consts)))
    return f"def _compiled(x1, x2{params}):\n" + "".join(lines) + f"    return {result}\n"


def _spelled_out(expo: Expr) -> bool:
    return isinstance(expo, Constant) and expo.value.is_integer() and abs(expo.value) <= expr._INT_POW_MAX


def _per_root_operation(node: Expr, args: list[str]) -> str:
    if isinstance(node, Negate):
        return f"-{args[0]}"
    if isinstance(node, Apply):
        return f"_fn_{node.fn}({args[0]})"
    if isinstance(node, Pow):
        if _spelled_out(node.exponent):
            n = int(node.exponent.value)
            return "*".join([args[0]] * n) if 1 <= n <= 8 else f"_int_pow({args[0]}, {n})"
        return f"_pow_value({args[0]}, {args[1]})"
    return f"{args[0]} {({Add: '+', Sub: '-', Mul: '*', Div: '/'})[type(node)]} {args[1]}"


def _per_node_guards(guards: list[Expr], exprs: list[Expr]) -> list[Expr]:
    """The guards, then the denominators of each node under `exprs` in
    `_nodes` order, each once."""
    merged = dict.fromkeys(guards)
    for n in _nodes(exprs):
        merged.update(dict.fromkeys(denominators(n)))
    return list(merged)


def test_kernel_source_and_guards_match_the_per_root_composition(monkeypatch):
    sources = []
    original = expr._emit
    monkeypatch.setattr(expr, "_emit", lambda key: sources.append(original(key)) or sources[-1])
    rng = random.Random(2026)
    for _ in range(60):
        roots = _random_group(rng)
        sources.clear()
        expr._template.cache_clear()
        compile_many(roots)
        compile_expr(roots[-2])
        assert sources == [_per_root_source(roots, False), _per_root_source([roots[-2]], True)]
        guards = roots[:1] + list(_under(roots[1]).values())[:2]
        assert [id(g) for g in merge_guards(guards, roots)] == [id(g) for g in _per_node_guards(guards, roots)]
        # The denominators of each root in turn, each once, in `_nodes` order.
        flat = [g for r in roots for g in denominators(r)]
        found = denominators(*roots)
        assert len(found) == len(dict.fromkeys(flat)) and {id(g) for g in found} == {id(g) for g in flat}
        assert [id(g) for g in found] == [id(g) for g in _per_node_guards([], roots)]


def test_outputs_with_the_same_code_share_one_local(monkeypatch):
    # t^2 is spelled t0*t0 and t*t is t0 * t0: two locals.  The powers to
    # 0.0 and -0.0 are distinct nodes whose code is the same: one local.
    sources = []
    original = expr._emit
    monkeypatch.setattr(expr, "_emit", lambda key: sources.append(original(key)) or sources[-1])
    t = Apply("sin", X1)
    roots = [Pow(t, Constant(2.0)), Mul(t, t), Pow(t, Constant(0.0)), Pow(t, Constant(-0.0))]
    assert roots[2] is not roots[3]
    expr._template.cache_clear()
    kernel = compile_many(roots)
    assert sources == [_per_root_source(roots, False)]
    assert "    t1 = t0*t0\n    t2 = t0 * t0\n    t3 = _int_pow(t0, 0)\n    return (t1, t2, t3, t3, )\n" in sources[0]
    for p in [(0.5, 0.3), (-1.25, 0.0), (3.0, 2.0)]:
        got = kernel(*p)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", evaluate(r, p)) for r in roots]


# The recursive printer `to_string` replaces, kept as a reference.
_PREC = {Add: 10, Sub: 10, Mul: 20, Div: 20, Pow: 30}
_SYMBOL = {Add: " + ", Sub: " - ", Mul: "*", Div: "/", Pow: "^"}


def _recursive_render(e: Expr, min_prec: int = 0) -> str:
    if isinstance(e, Constant):
        s = expr._format_number(e.value)
        prec = 25 if s.startswith("-") or math.isnan(e.value) else 100
    elif isinstance(e, Variable):
        prec, s = 100, e.var.value
    elif isinstance(e, Apply):
        prec, s = 100, f"{e.fn}({_recursive_render(e.arg)})"
    elif isinstance(e, Negate):
        prec = 25
        s = f"-({_recursive_render(e.arg)})" if isinstance(e.arg, Constant) else "-" + _recursive_render(e.arg, 26)
    else:
        prec = _PREC[type(e)]
        left, right = (prec + 1, prec) if isinstance(e, Pow) else (prec, prec + 1)
        s = _recursive_render(e.lhs, left) + _SYMBOL[type(e)] + _recursive_render(e.rhs, right)
    return f"({s})" if prec < min_prec else s


def test_to_string_matches_the_recursive_printer_and_round_trips():
    rng = random.Random(515)
    trees = [random_smooth_tree(rng, rng.randint(0, 6)) for _ in range(300)]
    trees += [simplify(differentiate(t, Var.X1)) for t in trees[:50]]
    trees += [
        Negate(Constant(-2.0)),
        Pow(Constant(-2.0), Constant(-2.0)),
        Sub(X1, Negate(Add(X1, X2))),
        Pow(Pow(X1, X2), Pow(X2, X1)),
        Mul(Constant(-0.0), Div(X1, Mul(X2, X2))),
        Negate(Negate(Constant(1e300))),
        Pow(Constant(-0.0), Sub(X1, Constant(-0.0))),
        Negate(Constant(-0.0)),
        Add(Constant(math.inf), Pow(X2, Constant(-math.inf))),
        Div(Constant(0.0), Mul(Constant(-math.inf), X1)),
    ]
    for e in trees:
        text = to_string(e)
        assert text == _recursive_render(e)
        assert parse(text) is e


def test_to_string_renders_a_long_chain_without_recursion():
    e = X1
    for k in range(1, 10_000):
        e = Add(e, Mul(Constant(float(k % 97)), X2)) if k % 2 else Sub(e, Pow(X1, Constant(2.0)))
    tracemalloc.start()
    try:
        text = to_string(e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 60_000
    # Every prefix of the chain held at once would take hundreds of MB.
    assert peak < 20 * len(text) + 4_000_000
    assert parse(text) is e


def _reference_curvature_residuals(m: DiagonalMetric, V: FrameField) -> list[Expr]:
    """The curvature-identity residuals built from full covariant matrices."""

    def field(W: FrameField, i: int) -> FrameField:
        cov = covariant_matrix(m, W)
        return FrameField(cov[(i, 1)], cov[(i, 2)])

    d1V, d2V = field(V, 1), field(V, 2)
    n12, n21 = field(d2V, 1), field(d1V, 2)
    b1, b2 = lie_bracket(m)
    rho = ricci(m).rho
    lhs1 = simplify(Sub(Sub(n12.V1, n21.V1), Add(Mul(b1, d1V.V1), Mul(b2, d2V.V1))))
    lhs2 = simplify(Sub(Sub(n12.V2, n21.V2), Add(Mul(b1, d1V.V2), Mul(b2, d2V.V2))))
    rhs1 = simplify(Negate(frame_derivative(m, rho, 2)))
    rhs2 = frame_derivative(m, rho, 1)
    return [simplify(Sub(lhs1, rhs1)), simplify(Sub(lhs2, rhs2))]


def _pairs():
    for name in PASSING_CORPUS:
        m, V, _, _ = load_corpus_pair(name)
        yield m, V
    for variant in ("branch1", "branch2"):
        for _, _, m, V in draw_constructed(variant, 2, 99, SamplingConfig()):
            yield m, V


def test_curvature_identity_residuals_are_the_nodes_of_the_full_matrix_path():
    for m, V in _pairs():
        got = _curvature_identity_residuals(m, V)
        expected = _reference_curvature_residuals(m, V)
        assert len(got) == 2 and all(a is b for a, b in zip(got, expected))
        cov = covariant_matrix(m, V)
        for i in (1, 2):
            assert covariant_row(m, V, i) == (cov[(i, 1)], cov[(i, 2)])
            assert all(a is b for a, b in zip(covariant_row(m, V, i), (cov[(i, 1)], cov[(i, 2)])))
