"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on
success (run with -s to see them); tolerances are pinned here and never
loosened at runtime.  Criterion 4 reuses the pairs built for criterion
2, so the family draws live in a module-scoped fixture.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from ricciplane import cli
from ricciplane.expr import Constant, Domain, Sub, X1, compile_expr, parse, simplify, to_string
from ricciplane.families import Branch2, ConstantMetric, admissibility, construct
from ricciplane.geometry import DiagonalMetric, ricci
from ricciplane.identities import (
    PotentialFunction,
    check_curvature_identity,
    check_laplacian_scalar,
    check_norm_symmetry,
    check_ric_vv,
    check_scalar_divergence,
    check_steady_soliton,
    gradient_field,
    hessian,
)
from ricciplane.numeric import SamplingConfig, sample_points, sampled_max_abs
from ricciplane.riccifield import (
    FrameField,
    closedness_defect,
    covariant_matrix,
    equation_guards,
    verify,
)

from conftest import (
    CORPUS,
    FAILING_CORPUS,
    FAMILY_VARIANTS,
    PASSING_CORPUS,
    draw_constructed,
    draw_family,
    load_corpus_pair,
)

CFG = SamplingConfig()
IDENTITY_CFG = SamplingConfig(tolerance=1e-7)
DEFAULT_DOMAIN = Domain()


def announce(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def family_pairs():
    """100 constructed pairs per variant, as criterion 2 demands."""
    return {
        variant: draw_constructed(variant, 100, seed=2024 + i, cfg=CFG)
        for i, variant in enumerate(FAMILY_VARIANTS)
    }


def test_criterion_1_paper_example_regression(capsys):
    for name in PASSING_CORPUS:
        assert cli.main(["verify", "--spec", str(CORPUS / name)]) == 0, name
        report = json.loads(capsys.readouterr().out)
        assert max(report["residual_max"]) <= 1e-9, name
    # the unequal-scales instantiation must fail on R4, the equal-scales
    # one (in the passing list) must pass
    for name in FAILING_CORPUS:
        assert cli.main(["verify", "--spec", str(CORPUS / name)]) == 1, name
        report = json.loads(capsys.readouterr().out)
        assert report["residual_max"][3] >= 0.1
    readme = (CORPUS / "README.md").read_text()
    assert "ex04_rotating_unequal_scales" in readme and "k1 != k2" in readme
    with capsys.disabled():
        announce(1, "paper example regression incl. k1!=k2 discrepancy")


def test_criterion_2_family_soundness(capsys, family_pairs):
    for variant, pairs in family_pairs.items():
        assert len(pairs) == 100
        for _, dom, m, V in pairs:
            report = verify(m, V, dom, CFG)
            assert report.passed, (variant, report.max_abs)
            assert max(report.max_abs) <= 1e-8, (variant, report.max_abs)
    for _, dom, m, _ in family_pairs["branch2"]:
        rho = ricci(m).rho
        points = sample_points(dom, CFG, equation_guards(m, [rho]))
        [(maxima, _)] = sampled_max_abs([[rho]], points)
        assert maxima[0] <= 1e-9
    with capsys.disabled():
        announce(2, "family soundness, 100 draws per variant")


def test_criterion_3_proposition_equivalences(capsys):
    rng = random.Random(33)
    epsilon = 0.1
    for case in range(20):
        params, dom = draw_family("constant_components", rng)
        m, V = construct(params, dom, CFG)
        assert verify(m, V, dom, CFG).passed, f"constant field case {case}"

        perturbed = FrameField(simplify(Constant(params.c1) + Constant(epsilon) * X1), Constant(params.c2))
        report = verify(m, perturbed, dom, CFG)
        assert not report.passed, f"perturbed case {case}"
        f1 = compile_expr(m.f1)
        min_f1 = min(abs(f1(x1, x2)) for x1, x2 in sample_points(dom, CFG, [m.f1, m.f2]))
        assert max(report.max_abs) >= 0.05 * abs(epsilon * min_f1)
    with capsys.disabled():
        announce(3, "constant fields pass, perturbed fields fail")


def _corpus_pairs():
    out = []
    for name in PASSING_CORPUS:
        m, V, d, _ = load_corpus_pair(name)
        out.append((name, d, m, V))
    return out


def test_criterion_4_identity_suite(capsys, family_pairs):
    pairs = _corpus_pairs()
    for variant in FAMILY_VARIANTS:
        pairs.extend((variant, dom, m, V) for _, dom, m, V in family_pairs[variant])
    # deliberate same-metric groups so the pairwise clauses see real work
    for c1, c2 in ((1.0, 0.0), (0.0, 1.0), (1.5, -0.5)):
        m, V = construct(Branch2(parse("exp(x1)"), c=1.0, c1=c1, c2=c2), DEFAULT_DOMAIN, CFG)
        pairs.append(("branch2-shared", DEFAULT_DOMAIN, m, V))
        mc, Vc = construct(ConstantMetric(2.0, 3.0, c1, c2), DEFAULT_DOMAIN, CFG)
        pairs.append(("constant-shared", DEFAULT_DOMAIN, mc, Vc))

    for label, dom, m, V in pairs:
        assert check_ric_vv(m, V, dom, IDENTITY_CFG), label
        assert check_scalar_divergence(m, V, dom, IDENTITY_CFG), label
        assert check_curvature_identity(m, V, dom, IDENTITY_CFG), label

    groups: dict[tuple[str, str, tuple], list] = {}
    for label, dom, m, V in pairs:
        key = (to_string(m.f1), to_string(m.f2), (dom.x1_range, dom.x2_range))
        groups.setdefault(key, []).append((dom, m, V))
    tested_pairs = 0
    for members in groups.values():
        for (dom, m, Va), (_, _, Vb) in itertools.combinations(members, 2):
            tested_pairs += 1
            average = FrameField(
                simplify(Constant(0.5) * (Va.V1 + Vb.V1)),
                simplify(Constant(0.5) * (Va.V2 + Vb.V2)),
            )
            assert verify(m, average, dom, CFG).passed
            difference = FrameField(simplify(Sub(Va.V1, Vb.V1)), simplify(Sub(Va.V2, Vb.V2)))
            cov = covariant_matrix(m, difference)
            points = sample_points(dom, CFG, equation_guards(m, cov.values()))
            [(maxima, _)] = sampled_max_abs([list(cov.values())], points)
            assert max(maxima) <= 2e-9
            for field in (Va, Vb):
                defect = closedness_defect(m, field)
                [(maxima, _)] = sampled_max_abs([[defect]], points)
                assert maxima[0] <= 1e-9
            assert check_norm_symmetry(m, Va, Vb, dom, IDENTITY_CFG)
    assert tested_pairs >= 6  # corpus flat metric + the deliberate groups
    with capsys.disabled():
        announce(4, f"identity suite over {len(pairs)} pairs, {tested_pairs} same-metric pairs")


def test_criterion_5_gradient_soliton(capsys):
    strict = SamplingConfig(tolerance=1e-9)
    m = DiagonalMetric(parse("exp(x1)"), parse("exp(x2)"))
    potential = PotentialFunction(parse("-exp(-x1) - exp(-x2)"))
    V = gradient_field(m, potential)
    points = sample_points(DEFAULT_DOMAIN, strict)
    for component in (Sub(V.V1, Constant(1.0)), Sub(V.V2, Constant(1.0))):
        [(maxima, _)] = sampled_max_abs([[simplify(component)]], points)
        assert maxima[0] <= 1e-9
    assert verify(m, V, DEFAULT_DOMAIN, strict).passed
    entries = hessian(m, potential)
    rho = ricci(m).rho
    residuals = [
        simplify(Sub(entries[(1, 1)], rho)),
        entries[(1, 2)],
        entries[(2, 1)],
        simplify(Sub(entries[(2, 2)], rho)),
    ]
    [(maxima, _)] = sampled_max_abs([residuals], points)
    assert max(maxima) <= 1e-9
    assert check_steady_soliton(m, potential, DEFAULT_DOMAIN, strict)
    assert check_laplacian_scalar(m, potential, DEFAULT_DOMAIN, strict)
    with capsys.disabled():
        announce(5, "flat-metric potential reproduces the example field")


def test_criterion_6_fd_oracle_on_corpus(capsys):
    for name in PASSING_CORPUS + FAILING_CORPUS:
        assert cli.main(["oracle", "--spec", str(CORPUS / name)]) == 0, name
        report = json.loads(capsys.readouterr().out)
        assert all(entry["max_rel_error"] <= 1e-5 for entry in report["fd"].values()), name
    with capsys.disabled():
        announce(6, "symbolic derivatives match finite differences <= 1e-5")


def test_criterion_7_remark_admissibility(capsys):
    cases = [
        ("branch1", DiagonalMetric(parse("cosh(x1)"), parse("exp(x1)")), -1.0),
        ("branch2", DiagonalMetric(parse("exp(x1)"), parse("exp(x1)")), 1.0),
    ]
    for kind, m, expected in cases:
        is_constant, mean = admissibility(kind, m, DEFAULT_DOMAIN, CFG)
        assert is_constant is True
        assert abs(mean - expected) <= 1e-9
        # independent spread check on the condition expression itself
        if kind == "branch1":
            condition = parse(
                "sinh(x1)*exp(x1) - 2*cosh(x1)*exp(x1) + cosh(x1)*exp(x1)*exp(x1)/exp(x1)"
            )
        else:
            condition = parse("exp(x1)*exp(x1)/exp(x1)^2")
        fn = compile_expr(condition)
        values = [fn(x1, x2) for x1, x2 in sample_points(DEFAULT_DOMAIN, CFG)]
        assert len(values) == 200
        assert max(values) - min(values) <= 1e-9
        assert abs(values[0] - expected) <= 1e-12
    with capsys.disabled():
        announce(7, "remark metrics give branch constants -1 and 1")


def test_criterion_8_determinism(capsys, tmp_path):
    for name in ("ex03_cosh_metric.json", "ex04_rotating_unequal_scales.json"):
        spec = str(CORPUS / name)
        cli.main(["verify", "--spec", spec, "--identities"])
        first = capsys.readouterr().out
        cli.main(["verify", "--spec", spec, "--identities"])
        assert capsys.readouterr().out == first
        golden = (CORPUS / "reports" / name.replace(".json", ".report.json")).read_text()
        cli.main(["verify", "--spec", spec])
        assert capsys.readouterr().out == golden

    cli.main(["oracle", "--spec", str(CORPUS / "ex03_cosh_metric.json")])
    first = capsys.readouterr().out
    cli.main(["oracle", "--spec", str(CORPUS / "ex03_cosh_metric.json")])
    assert capsys.readouterr().out == first

    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": {"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": 1}}))
    outputs = []
    for run in (1, 2):
        emit = tmp_path / f"derived{run}.json"
        cli.main(["construct", "--spec", str(family), "--emit-spec", str(emit)])
        captured = capsys.readouterr().out
        outputs.append((captured.replace(f"derived{run}", "derived"), emit.read_text()))
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        announce(8, "byte-identical reports across runs and vs golden files")
