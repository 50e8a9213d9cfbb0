"""CLI contract: subcommands, exit codes, report stability."""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import pytest

from ricciplane import cli, numeric
from ricciplane.numeric import SamplingConfig

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


def test_emit_grid_reports_a_faulty_kernel_as_internal_error(monkeypatch, tmp_path, capsys):
    def faulty(e):
        def kernel(x1, x2):
            raise TypeError("fault inside a kernel")

        return kernel

    monkeypatch.setattr(cli, "compile_expr", faulty)
    code, out, err = run_cli(
        capsys, "curvature", "--spec", str(CORPUS / "ex03_cosh_metric.json"),
        "--emit-grid", str(tmp_path / "grid.csv"), "--grid-size", "3",
    )
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error:")
    assert "TypeError: fault inside a kernel" in err


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


def _assert_unwritable(code: int, out: str, err: str, path: Path) -> None:
    assert code == cli.EXIT_SPEC_ERROR == 2
    assert out == ""
    assert err.startswith(f"spec error: cannot write {path}: ")
    assert "Traceback" not in err
    assert not path.exists()


def test_unwritable_out_path_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--out", str(path))
    _assert_unwritable(code, out, err, path)


def test_unwritable_grid_path_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "missing" / "grid.csv"
    code, out, err = run_cli(
        capsys, "curvature", "--spec", str(CORPUS / "ex03_cosh_metric.json"), "--emit-grid", str(path), "--grid-size", "3"
    )
    _assert_unwritable(code, out, err, path)


def test_unwritable_emit_spec_path_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": {"kind": "constant_metric", "k1": 2, "k2": 3, "c1": 1, "c2": 1}})
    path = tmp_path / "missing" / "derived.json"
    code, out, err = run_cli(capsys, "construct", "--spec", spec, "--emit-spec", str(path))
    _assert_unwritable(code, out, err, path)


def test_repeated_domain_coordinate_is_a_spec_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--spec", str(CORPUS / "ex06_constant_metric.json"), "--domain", "x1:1,2;x1:3,4"
    )
    assert code == 2
    assert out == ""
    assert err == "spec error: repeated --domain coordinate 'x1'\n"


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


def test_spec_file_that_is_not_utf8_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"metric": {"f1": "1", "f2": "1\xff"}}')
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"spec error: cannot read spec file {path}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_deeply_nested_spec_file_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"spec error: spec file {path} is nested too deeply\n"


def test_unexpected_exception_exits_5(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "verify", broken)
    code, out, err = run_cli(capsys, "verify", "--spec", str(CORPUS / "ex03_cosh_metric.json"))
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error:")
    assert "KeyError: 'boom'" in err


# A JSON integer too large for a float: float() raises OverflowError.
HUGE_INTEGER = "1" + "0" * 400


@pytest.mark.parametrize(
    "section",
    [
        '"sampling": {"samples": 1e400}',
        '"sampling": {"seed": 1e400}',
        '"domain": {"x1": {}}',
        '"domain": "abc"',
        '"sampling": [1]',
        pytest.param('"domain": {"x1": [0, ' + HUGE_INTEGER + "]}", id="huge-domain-x1"),
        pytest.param('"domain": {"guard": ' + HUGE_INTEGER + "}", id="huge-domain-guard"),
        # A numeric field must be a JSON number (an integral one for
        # samples and seed), and a range exactly two bounds.
        pytest.param('"sampling": {"seed": 1.5}', id="fractional-seed"),
        pytest.param('"sampling": {"seed": true}', id="boolean-seed"),
        pytest.param('"sampling": {"samples": 20.9}', id="fractional-samples"),
        pytest.param('"sampling": {"samples": "20"}', id="string-samples"),
        pytest.param('"domain": {"x1": ["-1", "1"]}', id="string-domain-bounds"),
        pytest.param('"domain": {"guard": "1e-6"}', id="string-guard"),
        pytest.param('"domain": {"x1": [-1, 1, 5]}', id="three-domain-bounds"),
    ],
)
def test_malformed_spec_section_exits_2(tmp_path, capsys, section):
    path = tmp_path / "job.json"
    path.write_text('{"metric": {"f1": "1", "f2": "1"}, ' + section + "}", encoding="utf-8")
    code, out, err = run_cli(capsys, "curvature", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("spec error:")


def test_integral_float_sampling_fields_stay_valid(tmp_path, capsys):
    outputs = []
    for sampling in ('{"samples": 2e4, "seed": 7.0}', '{"samples": 20000, "seed": 7}'):
        path = tmp_path / "job.json"
        path.write_text('{"metric": {"f1": "1", "f2": "x1^2 + 1"}, "sampling": ' + sampling + "}", encoding="utf-8")
        outputs.append(run_cli(capsys, "curvature", "--spec", str(path)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and json.loads(outputs[0][1])["spec"]["sampling"]["samples"] == 20000


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


@pytest.mark.parametrize(
    "family, reason",
    [
        ('"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": ' + HUGE_INTEGER, "too large"),
        ('"kind": "branch1", "f2": "exp(x1)", "k": NaN, "c": 1', "k must be finite"),
        ('"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": -Infinity', "c must be finite"),
        ('"kind": "branch2", "f2": "exp(x1)", "c": 1, "c1": Infinity, "c2": 1', "c1 must be finite"),
        ('"kind": "branch2", "f2": "exp(x1)", "c": 1, "c1": 1, "c2": 1e400', "c2 must be finite"),
        ('"kind": "constant_metric", "k1": NaN, "k2": 1, "c1": 0, "c2": 0', "k1 must be finite"),
        ('"kind": "constant_metric", "k1": 1, "k2": Infinity, "c1": 0, "c2": 0', "k2 must be finite"),
        ('"kind": "branch1", "f2": "exp(x1)", "k": "1", "c": 1', "k must be a number"),
        ('"kind": "branch2", "f2": "exp(x1)", "c": 1, "c1": true, "c2": 1', "c1 must be a number"),
    ],
    ids=["huge-c", "nan-k", "inf-c", "inf-c1", "1e400-c2", "nan-k1", "inf-k2", "string-k", "boolean-c1"],
)
def test_bad_family_parameter_is_a_spec_error(tmp_path, capsys, family, reason):
    path = tmp_path / "job.json"
    path.write_text('{"family": {' + family + "}}", encoding="utf-8")
    code, out, err = run_cli(capsys, "construct", "--spec", str(path))
    assert code == 2, err
    assert out == ""
    assert err.startswith("spec error: bad family parameters:") and reason in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["verify", "curvature"])
@pytest.mark.parametrize("where", ["flag", "spec"])
def test_sample_count_beyond_the_sampler_is_a_spec_error(tmp_path, capsys, monkeypatch, command, where):
    # A pass draws samples * OVERSAMPLE_FACTOR candidates, which islice
    # cannot count beyond sys.maxsize: the config refuses such a count.
    draws = []
    monkeypatch.setattr(numeric, "_draws", lambda *args: draws.append(args) or iter(()))
    huge = "99999999999999999999"
    spec = json.loads((CORPUS / "ex02_exponential_metric.json").read_text(encoding="utf-8"))
    if where == "flag":
        argv = ["--samples", huge]
    else:
        argv = []
        spec["sampling"] = {"samples": int(huge)}
    code, out, err = run_cli(capsys, command, "--spec", write_spec(tmp_path, spec), *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("spec error: bad sampling config: samples must be <=")
    assert draws == []


def test_largest_accepted_sample_count():
    assert SamplingConfig(samples=numeric.MAX_SAMPLES).samples * numeric.OVERSAMPLE_FACTOR <= sys.maxsize
    with pytest.raises(ValueError, match="samples must be <="):
        SamplingConfig(samples=numeric.MAX_SAMPLES + 1)
