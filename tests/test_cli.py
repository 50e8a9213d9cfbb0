"""CLI contract: subcommands, exit codes, report stability."""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path

import pytest

from ricciplane import cli

from conftest import CORPUS, FAILING_CORPUS, PASSING_CORPUS


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path: Path, body: dict, name: str = "job.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", PASSING_CORPUS)
def test_corpus_specs_pass(capsys, name):
    code, out, _ = run_cli(capsys, "verify", "--spec", str(CORPUS / name))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert max(report["residual_max"]) <= 1e-9


@pytest.mark.parametrize("name", FAILING_CORPUS)
def test_corpus_discrepancy_fails(capsys, name):
    code, out, _ = run_cli(capsys, "verify", "--spec", str(CORPUS / name))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["residual_max"][3] >= 0.1


@pytest.mark.parametrize("name", PASSING_CORPUS + FAILING_CORPUS)
def test_reports_match_golden_files(capsys, name):
    _, out, _ = run_cli(capsys, "verify", "--spec", str(CORPUS / name))
    golden = (CORPUS / "reports" / name.replace(".json", ".report.json")).read_text()
    assert out == golden


@pytest.mark.parametrize("name", PASSING_CORPUS + FAILING_CORPUS)
def test_oracle_reports_match_golden_files(capsys, name):
    code, out, _ = run_cli(capsys, "oracle", "--spec", str(CORPUS / name))
    assert code == 0
    golden = (CORPUS / "reports" / name.replace(".json", ".oracle.json")).read_text()
    assert out == golden


def test_reports_are_byte_identical_across_runs(capsys):
    spec = str(CORPUS / "ex03_cosh_metric.json")
    _, first, _ = run_cli(capsys, "verify", "--spec", spec, "--identities")
    _, second, _ = run_cli(capsys, "verify", "--spec", spec, "--identities")
    assert first == second


def test_identities_alias(capsys):
    spec = str(CORPUS / "ex03_cosh_metric.json")
    _, via_flag, _ = run_cli(capsys, "verify", "--spec", spec, "--identities")
    code, via_alias, _ = run_cli(capsys, "identities", "--spec", spec)
    assert code == 0
    assert via_alias == via_flag
    verdicts = json.loads(via_alias)["identities"]
    assert verdicts == {
        "ric_vv": True,
        "scalar_divergence": True,
        "curvature_identity": True,
        "closedness": True,
    }


def test_curvature_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curvature", "--spec", str(CORPUS / "ex03_cosh_metric.json"))
    assert code == 0
    report = json.loads(out)
    assert report["flat"] is False
    # rho(0, 0) = -1 lies inside the sampled range
    assert report["rho_range"][0] <= -1.0 <= report["rho_range"][1]
    code, out, _ = run_cli(capsys, "curvature", "--spec", str(CORPUS / "ex06_constant_metric.json"))
    assert json.loads(out)["flat"] is True


def test_verify_potential_job(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "metric": {"f1": "exp(x1)", "f2": "exp(x2)"},
            "potential": "-exp(-x1) - exp(-x2)",
        },
    )
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--identities")
    assert code == 0
    report = json.loads(out)
    # the gradient field is the constant frame field (1, 1) value-wise
    from ricciplane.expr import Point, evaluate, parse as parse_expr

    for component in (report["field"]["V1"], report["field"]["V2"]):
        for xy in ((0.0, 0.0), (0.7, -0.3)):
            assert abs(evaluate(parse_expr(component), Point(*xy)) - 1.0) <= 1e-12
    assert report["identities"]["steady_soliton"] is True
    assert report["identities"]["laplacian_scalar"] is True


def test_spec_errors_exit_2(tmp_path, capsys):
    # malformed expression, with a position in the message
    spec = write_spec(tmp_path, {"metric": {"f1": "exp(x1", "f2": "1"}, "field": {"frame": "orthonormal", "V1": "1", "V2": "0"}})
    code, _, err = run_cli(capsys, "verify", "--spec", spec)
    assert code == 2
    assert "position 6" in err
    # missing file
    code, _, err = run_cli(capsys, "verify", "--spec", str(tmp_path / "nope.json"))
    assert code == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "verify", "--spec", str(bad))
    assert code == 2
    # wrong job shape: both field and potential
    spec = write_spec(
        tmp_path,
        {
            "metric": {"f1": "1", "f2": "1"},
            "field": {"frame": "orthonormal", "V1": "1", "V2": "0"},
            "potential": "x1",
        },
    )
    code, _, _ = run_cli(capsys, "verify", "--spec", spec)
    assert code == 2


def test_singular_domain_exit_3(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"metric": {"f1": "sin(x1)", "f2": "1"}, "field": {"frame": "orthonormal", "V1": "1", "V2": "0"}},
    )
    code, _, err = run_cli(capsys, "verify", "--spec", spec)
    assert code == 3
    assert "singular domain" in err


def test_construct_branch1_and_derived_spec(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"family": {"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": 1}},
    )
    derived_path = str(tmp_path / "derived.json")
    code, out, _ = run_cli(capsys, "construct", "--spec", spec, "--emit-spec", derived_path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["proof_only_case"] is False
    assert report["derived_spec"]["metric"]["f2"] == "exp(x1)"
    # the emitted spec is itself a verifiable job
    code, out, _ = run_cli(capsys, "verify", "--spec", derived_path)
    assert code == 0


def test_construct_branch2_passes(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"family": {"kind": "branch2", "f2": "exp(x1)", "c": 1, "c1": 1, "c2": 1}},
    )
    code, out, _ = run_cli(capsys, "construct", "--spec", spec, "--emit-spec", str(tmp_path / "d.json"))
    assert code == 0


def test_construct_flags_proof_only_case(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"family": {"kind": "branch1", "f2": "exp(x1)", "k": 0, "c": 1}},
    )
    code, out, _ = run_cli(capsys, "construct", "--spec", spec, "--emit-spec", str(tmp_path / "d.json"))
    assert code == 0
    assert json.loads(out)["proof_only_case"] is True


def test_construct_hypothesis_violation_exit_4(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"family": {"kind": "branch1", "f2": "sin(x1)", "k": 1, "c": 1}},
    )
    code, _, err = run_cli(capsys, "construct", "--spec", spec)
    assert code == 4
    assert "hypothesis violated" in err
    assert "f2" in err


def test_oracle_on_corpus_spec(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", str(CORPUS / "ex03_cosh_metric.json"))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert set(report["fd"]) == {"h12", "h21", "rho", "R1", "R2", "R3", "R4"}
    assert all(entry["max_rel_error"] <= 1e-5 for entry in report["fd"].values())


def test_oracle_constant_metric_has_zero_deviations(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", str(CORPUS / "ex06_constant_metric.json"))
    assert code == 0
    report = json.loads(out)
    assert all(entry["max_rel_error"] == 0.0 for entry in report["fd"].values())


def test_oracle_counts_kink_straddles(tmp_path, capsys):
    # every x1-stencil in this sliver straddles the abs kink at 0
    spec = write_spec(
        tmp_path,
        {
            "metric": {"f1": "2 + abs(x1)", "f2": "exp(x1)"},
            "domain": {"x1": [-1e-5, 1e-5], "x2": [-1.0, 1.0], "guard": 1e-9},
        },
    )
    code, out, _ = run_cli(capsys, "oracle", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["fd"]["h21"]["points_skipped"] > 0


def test_flag_overrides_are_echoed(tmp_path, capsys):
    spec = str(CORPUS / "ex06_constant_metric.json")
    _, out, _ = run_cli(
        capsys, "verify", "--spec", spec, "--seed", "7", "--samples", "50", "--domain", "x1:0,2;x2:-3,-1"
    )
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["spec"]["sampling"]["samples"] == 50
    assert report["spec"]["domain"]["x1"] == [0.0, 2.0]
    assert report["spec"]["domain"]["x2"] == [-3.0, -1.0]


def test_emit_grid_writes_csv(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--spec", str(CORPUS / "ex03_cosh_metric.json"),
        "--emit-grid", str(grid), "--grid-size", "5",
    )
    assert code == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,rho,R1,R2,R3,R4"
    assert len(lines) == 1 + 25


def test_emit_grid_rejects_degenerate_size(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--spec", str(CORPUS / "ex06_constant_metric.json"),
        "--emit-grid", str(tmp_path / "g.csv"), "--grid-size", "1",
    )
    assert code == 2
    assert "grid-size" in err


def test_construct_default_derived_path(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": {"kind": "constant_metric", "k1": 2, "k2": 3, "c1": 1, "c2": 1}})
    code, _, _ = run_cli(capsys, "construct", "--spec", spec)
    assert code == 0
    assert (tmp_path / "job.derived.json").exists()


def test_out_flag_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    _, stdout, _ = run_cli(
        capsys, "verify", "--spec", str(CORPUS / "ex06_constant_metric.json"), "--out", str(out_path)
    )
    assert out_path.read_text() == stdout


def test_deeply_nested_expression_is_a_spec_error(tmp_path, capsys):
    # A 3 000-term sum nests 3 000 levels deep, beyond the recursion
    # limit of the expression walks.
    spec = {
        "metric": {"f1": "1", "f2": "1"},
        "field": {"frame": "orthonormal", "V1": " + ".join(["x1"] * 3000), "V2": "0"},
    }
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert code == 2
    assert out == ""
    assert "expression nested too deeply" in err
    assert "Traceback" not in err


def test_unexpected_exception_exits_5(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "verify", broken)
    code, out, err = run_cli(capsys, "verify", "--spec", str(CORPUS / "ex03_cosh_metric.json"))
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error:")
    assert "KeyError: 'boom'" in err


@pytest.mark.parametrize(
    "section",
    [
        '"sampling": {"samples": 1e400}',
        '"sampling": {"seed": 1e400}',
        '"domain": {"x1": {}}',
        '"domain": "abc"',
        '"sampling": [1]',
    ],
)
def test_malformed_spec_section_exits_2(tmp_path, capsys, section):
    path = tmp_path / "job.json"
    path.write_text('{"metric": {"f1": "1", "f2": "1"}, ' + section + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "curvature", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("spec error:")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    spec = str(CORPUS / "ex06_constant_metric.json")
    assert run_cli(capsys, "curvature", "--spec", spec, "--samples", "20")[0] == 0

    def rebuilt():
        raise AssertionError("cli.main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run_cli(capsys, "curvature", "--spec", spec, "--samples", "20")
    assert code == 0 and json.loads(out)["command"] == "curvature"


def test_job_leaves_no_argparse_garbage(capsys):
    spec = str(CORPUS / "ex03_cosh_metric.json")
    run_cli(capsys, "identities", "--spec", spec, "--samples", "50")
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, _ = run_cli(capsys, "identities", "--spec", spec, "--samples", "50")
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, (argparse.ArgumentParser, argparse.HelpFormatter))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0
    assert left == []


def test_huge_integer_power_gives_a_report(tmp_path, capsys):
    # x1^2000000000 underflows to 0 on the domain; the cap keeps each
    # evaluation to one math.pow instead of 2e9 multiplications.
    spec = {
        "metric": {"f1": "1", "f2": "1"},
        "field": {"frame": "orthonormal", "V1": "x1^2000000000 + 1", "V2": "0"},
        "domain": {"x1": [0.5, 0.9], "x2": [-1.0, 1.0]},
    }
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert time.perf_counter() - start < 10.0
    assert code == 0, err
    assert json.loads(out)["residual_max"] == [0.0, 0.0, 0.0, 0.0]
