"""Each pure DAG query answered once per job: guard lists, finiteness
folds and oracle derivatives kept in the job's record, the zero test's
node kernel compiled only when it reads a row, and several roots
printed in one pass."""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciplane import cli, expr, geometry, numeric, riccifield
from ricciplane.expr import Add, Apply, Constant, Domain, Mul, Negate, Pow, Sub, Var, X1, X2, _nodes, differentiate, parse, simplify, to_string
from ricciplane.numeric import DomainTooSingularError, SamplingConfig, _job_stream, fd_validate, merge_guards

from conftest import CORPUS, load_corpus_pair, reference_derivative
from test_dag_passes import _random_group


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _counting(calls: list, label: str, original):
    def counted(*args):
        calls.append((label, args))
        return original(*args)

    return counted


def test_an_identities_job_answers_its_guard_and_fold_queries_once(monkeypatch):
    calls = []
    folds = _counting(calls, "folds", expr._finiteness_folds)
    monkeypatch.setattr(expr, "_finiteness_folds", folds)
    monkeypatch.setattr(geometry, "_finiteness_folds", folds)
    monkeypatch.setattr(numeric, "denominators", _counting(calls, "denominators", numeric.denominators))
    requests, original = [], numeric.merge_guards

    def requested(guards, exprs):
        requests.append((tuple(guards), tuple(exprs)))
        return original(guards, exprs)

    monkeypatch.setattr(numeric, "merge_guards", requested)
    monkeypatch.setattr(riccifield, "merge_guards", requested)
    assert _quiet_main(["identities", "--spec", str(CORPUS / "ex03_cosh_metric.json")]) == 0
    assert [label for label, _ in calls].count("folds") == 1
    walked = [args for label, args in calls if label == "denominators"]
    keys = [tuple(map(id, (*guards, None, *group))) for guards, group in requests]
    # The residual group is asked for twice (first point, then the sweep) and walked once.
    assert len(set(keys)) < len(keys)
    assert len(walked) == len(set(keys))
    assert len({tuple(map(id, roots)) for roots in walked}) == len(walked)


def test_merge_guards_outside_a_job_walks_on_every_call(monkeypatch):
    walked = []
    monkeypatch.setattr(numeric, "denominators", _counting(walked, "denominators", numeric.denominators))
    group = [parse("1/x1 + x2/(x1 - 3)")]
    first = merge_guards([X2], group)
    assert merge_guards([X2], group) == first and first is not merge_guards([X2], group)
    assert len(walked) == 3
    with _job_stream():
        assert merge_guards([X2], group) is merge_guards((X2,), tuple(group))
    assert len(walked) == 4


@pytest.mark.parametrize(
    "name, kernels",
    [("ex04_rotating_equal_scales.json", 0), ("ex06_constant_metric.json", 0), ("ex03_cosh_metric.json", 1)],
)
def test_a_recorded_flat_test_compiles_no_node_kernel(name, kernels, monkeypatch):
    # ex04 and ex06 are flat, decided from the recorded ranges alone; ex03
    # is not, and reads its first row from the kernel of every node.
    calls = []
    compile_many = _counting(calls, "compile_many", expr.compile_many)
    monkeypatch.setattr(expr, "compile_many", compile_many)
    monkeypatch.setattr(numeric, "compile_many", compile_many)
    assert _quiet_main(["curvature", "--spec", str(CORPUS / name)]) == 0
    assert len(calls) == kernels


# The multi-root printer.

# Values, not nodes: a module-level NaN node would outlive the test and
# stand in for every NaN constant built later (they share one key).
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


def _with_specials(roots: list, picks: list) -> list:
    """`roots` and, for each pick (kind, constant, root), a node that
    combines a special constant with one of them."""
    out = list(roots)
    for kind, k, r in picks:
        c, e = Constant(_SPECIAL[k]), roots[r % len(roots)]
        out.append([Add(e, c), Mul(c, e), Sub(c, e), Pow(e, c), Negate(c), Apply("exp", c)][kind])
    return out


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, len(_SPECIAL) - 1), st.integers(0, 40)), max_size=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_equals_each_root_printed_alone(seed, picks, rng):
    roots = _with_specials(_random_group(random.Random(seed)), picks)
    rng.shuffle(roots)
    assert expr._to_strings(roots) == [to_string(r) for r in roots]


def test_one_pass_prints_a_long_sum_with_its_terms():
    e, terms = X1, []
    for k in range(1, 10_000):
        terms.append(Mul(Constant(float(k % 97)), X2) if k % 2 else Pow(X1, Constant(2.0)))
        e = Add(e, terms[-1]) if k % 2 else Sub(e, terms[-1])
        if k == 4_999:
            inner = e  # a prefix sum: a subterm of the sum, itself deep
    texts = expr._to_strings([terms[3], e, inner, terms[3]])
    assert texts == [to_string(terms[3]), to_string(e), to_string(inner), to_string(terms[3])]
    assert parse(texts[1]) is e and parse(texts[2]) is inner


# The oracle's derivatives: one memo per variable across the expressions.


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_each_oracle_slope_is_the_derivative_of_its_expression(name, monkeypatch):
    kernels, rules = [], []
    compile_fd, rule = numeric.compile_fd, expr._derivative_rule
    monkeypatch.setattr(numeric, "compile_fd", lambda *roles: kernels.append(roles) or compile_fd(*roles))
    monkeypatch.setattr(expr, "_derivative_rule", lambda *a: rules.append(a) or rule(*a))
    assert _quiet_main(["oracle", "--spec", str(CORPUS / name)]) == 0
    pairs = [(e, v) for e, v, *_ in rules]
    assert kernels
    values = []
    for vals, slopes, _ in kernels:
        n = len(vals)
        for j, v in enumerate((Var.X1, Var.X2)):
            for i, e in enumerate(vals):
                assert slopes[j * n + i] is differentiate(e, v) is simplify(reference_derivative(e, v))
        values += vals
    # At most one rule application per variable and distinct node in the
    # job, so at most two per node under all of the oracle's expressions,
    # shared ones (rho in R1) included: they reuse the derivatives the
    # curvature and the residuals built.
    assert len(pairs) == len(set(pairs))
    under = set(_nodes(values))
    assert sum(e in under for e, _ in pairs) <= 2 * len(under)


@pytest.mark.parametrize("scoped", [True, False])
def test_the_oracle_checks_the_rho_slopes_the_curvature_identity_reads(scoped, monkeypatch):
    m, V, d, cfg = load_corpus_pair("ex03_cosh_metric.json")
    kernels = []
    compile_fd = numeric.compile_fd
    monkeypatch.setattr(numeric, "compile_fd", lambda *roles: kernels.append(roles) or compile_fd(*roles))
    with _job_stream() if scoped else contextlib.nullcontext():
        curv = geometry.ricci(m)
        fd_validate([curv.h12, curv.h21, curv.rho, *riccifield.residual_system(m, V)], d, cfg, guards=[m.f1, m.f2])
    rho_slopes = [slopes[j * len(vals) + k] for vals, slopes, _ in kernels for j in (0, 1)
                  for k, e in enumerate(vals) if e is curv.rho]
    assert len(rho_slopes) == 2
    # E_i(rho) = f_i * d(rho)/dx^i, which the curvature identity reads.
    for i, slope in zip((1, 2), rho_slopes):
        assert slope is differentiate(curv.rho, Var.X1 if i == 1 else Var.X2)
        assert geometry.frame_derivative(m, curv.rho, i) is simplify(Mul(m.component(i), slope))
    # On ex03 rho depends on x1 alone: E1(rho) holds its slope as it is, E2(rho) is 0.
    assert geometry.frame_derivative(m, curv.rho, 1) is Mul(m.f1, rho_slopes[0])
    assert rho_slopes[1] is Constant(0.0)


def test_an_unsamplable_third_expression_raises_after_the_first_two(monkeypatch):
    d, cfg = Domain(), SamplingConfig(samples=50)
    exprs = [parse("exp(x1)*x2"), parse("x2/(x1 + 2)"), parse("x1/(1e-9*x1 + 1e-9*x2)")]
    with pytest.raises(DomainTooSingularError) as alone:
        numeric.sample_points(d, cfg, merge_guards([], exprs[2:]))
    assert str(alone.value) == "accepted 0 of 50 requested points after 100x oversampling"
    for scope in (_job_stream, contextlib.nullcontext):
        order = []
        sample, derive = numeric.sample_points, numeric.differentiate
        with pytest.MonkeyPatch.context() as mp, scope():
            mp.setattr(numeric, "sample_points", lambda d, cfg, guards: order.append("sample") or sample(d, cfg, guards))
            mp.setattr(numeric, "differentiate", lambda e, v: order.append(exprs.index(e)) or derive(e, v))
            with pytest.raises(DomainTooSingularError) as err:
                fd_validate(exprs, d, cfg)
        assert str(err.value) == str(alone.value)
        assert order == ["sample", 0, 0, "sample", 1, 1, "sample"]
