"""An identities job sweeps its identity residuals with its residuals once
the residuals pass at the first point of their list, and its identity
phase finds them in the job's record.  Every report, error message and
exit code stays that of the phased path, which sweeps the identity
groups in a phase of their own after a pass."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ricciplane import cli, identities, numeric, riccifield
from ricciplane.expr import Domain, parse
from ricciplane.numeric import SamplingConfig, sample_points

from conftest import CORPUS
from test_job_stream import _family_jobs

SEEDS = ("1", "42", "603")
EX03 = str(CORPUS / "ex03_cosh_metric.json")
UNEQUAL = str(CORPUS / "ex04_rotating_unequal_scales.json")


def _phased(monkeypatch) -> None:
    """The phased path: the first-point check never lets a group join."""
    monkeypatch.setattr(riccifield, "_passes_first_point", lambda *args: False)


def _always_fused(monkeypatch) -> None:
    """Fuse the identity groups even where the first point fails."""
    monkeypatch.setattr(riccifield, "_passes_first_point", lambda *args: True)


def _run(jobs: list[list[str]], capsys) -> list[tuple[int, str, str]]:
    outputs = []
    for argv in jobs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        outputs.append((code, out, err))
    return outputs


def _counting_phase_sweeps(monkeypatch) -> list:
    """Wrap `numeric._sweep`, which sweeps the groups a job's record does
    not hold, `numeric.compile_sweep`, called once per sweep kernel run
    (a sweep of constants alone runs none), and the identity phase: one
    entry per phase, the (sweeps, kernels) it ran."""
    phases, sweeps, kernels = [], [], []
    sweep, compile_sweep, verdicts = numeric._sweep, numeric.compile_sweep, cli.identity_verdicts
    monkeypatch.setattr(numeric, "_sweep", lambda groups, points: sweeps.append(groups) or sweep(groups, points))
    monkeypatch.setattr(numeric, "compile_sweep", lambda exprs: kernels.append(exprs) or compile_sweep(exprs))

    def counted(*args):
        start = len(sweeps), len(kernels)
        try:
            return verdicts(*args)
        finally:
            phases.append((len(sweeps) - start[0], len(kernels) - start[1]))

    monkeypatch.setattr(cli, "identity_verdicts", counted)
    return phases


def _write(tmp_path: Path, name: str, spec: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _corpus_jobs(tmp_path: Path) -> list[list[str]]:
    jobs = [
        [*command, "--spec", str(path), "--samples", samples, "--seed", seed]
        for path in sorted(CORPUS.glob("*.json"))
        for command in (["identities"], ["verify", "--identities"])
        for samples in ("200", "2000")
        for seed in SEEDS
    ]
    potential = {"metric": {"f1": "exp(x1)", "f2": "exp(x2)"}, "potential": "-exp(-x1) - exp(-x2)"}
    jobs.append(["identities", "--spec", _write(tmp_path, "potential.json", potential)])
    return jobs + _family_jobs(tmp_path)


def test_fused_jobs_print_what_phased_jobs_print(tmp_path, capsys, monkeypatch):
    jobs = _corpus_jobs(tmp_path)
    assert len(jobs) == 8 * 2 * 2 * 3 + 1 + 4
    phases = _counting_phase_sweeps(monkeypatch)
    fused = _run(jobs, capsys)
    passed = sum(code == 0 for code, _, _ in fused) - 2  # the construct jobs run no identity phase
    # Every passing job read its identity verdicts from the fused sweep's record.
    assert phases == [(0, 0)] * passed
    with monkeypatch.context() as patch:
        _always_fused(patch)
        assert _run(jobs, capsys) == fused
    assert phases == [(0, 0)] * 2 * passed
    phases.clear()
    # The phased path sweeps the identity groups in the phase, in one sweep.
    _phased(monkeypatch)
    assert _run(jobs, capsys) == fused
    assert [sweeps for sweeps, _ in phases] == [1] * passed
    assert all(kernels <= 1 for _, kernels in phases)
    assert {code for code, _, _ in fused} == {0, 1}
    assert sum("identities" in json.loads(out) for _, out, _ in fused) == passed


def _fails_past_the_first_point(tmp_path: Path) -> list[str]:
    """A flat metric and a field whose residual 1e-8*(x1 - a) is zero
    at the first sampled point, x1 = a, and above tolerance elsewhere."""
    a = sample_points(Domain(), SamplingConfig(seed=42))[0][0]
    shift = f"x1 - {a!r}" if a >= 0 else f"x1 + {-a!r}"
    spec = {"metric": {"f1": "1", "f2": "1"}, "field": {"V1": f"1e-8*({shift})^2/2", "V2": "0"}}
    return ["identities", "--spec", _write(tmp_path, "late_fail.json", spec), "--seed", "42"]


def test_a_job_that_passes_the_first_point_and_fails_later(tmp_path, capsys, monkeypatch):
    argv = _fails_past_the_first_point(tmp_path)
    built = []
    ric_vv = identities._ric_vv_residuals
    monkeypatch.setattr(identities, "_ric_vv_residuals", lambda m, V: built.append(m) or ric_vv(m, V))
    [(code, out, err)] = _run([argv], capsys)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "fail" and "identities" not in report
    assert report["residual_max"][0] > 1e-9
    assert len(built) == 1  # fused with the residuals, then never read
    _phased(monkeypatch)
    assert _run([argv], capsys) == [(code, out, err)]
    assert len(built) == 1


def _with_extra_residual(monkeypatch, text: str) -> None:
    """Add one expression to the Ric(V, V) group."""
    ric_vv = identities._ric_vv_residuals
    monkeypatch.setattr(identities, "_ric_vv_residuals", lambda m, V: [*ric_vv(m, V), parse(text)])


@pytest.mark.parametrize("samples", ["200", "2000"])
def test_an_identity_group_drops_points_the_residuals_keep(capsys, monkeypatch, samples):
    # sqrt(x1 + 0.9) is undefined where x1 < -0.9; both sides agree
    # bit for bit elsewhere, so the group stays within tolerance.
    _with_extra_residual(monkeypatch, "sqrt(x1 + 0.9) - sqrt(0.9 + x1)")
    checked = []
    check = numeric._checked_sweeps

    def checking(collected, n, cfg, what):
        results = check(collected, n, cfg, what)
        if what == "identity residuals":
            checked.append(results)
        return results

    monkeypatch.setattr(numeric, "_checked_sweeps", checking)
    argv = ["identities", "--spec", EX03, "--samples", samples]
    [(code, out, err)] = _run([argv], capsys)
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["points_used"] == int(samples)
    assert all(report["identities"].values())
    [results] = checked
    assert 0 < results[0][1] < int(samples)
    assert [used for _, used in results[1:]] == [int(samples)] * 3
    _phased(monkeypatch)
    assert _run([argv], capsys) == [(code, out, err)]


def test_an_identity_shortfall_is_raised_after_a_pass(capsys, monkeypatch):
    # sqrt(x1 - 0.5) is evaluable at about a quarter of the points.
    _with_extra_residual(monkeypatch, "sqrt(x1 - 0.5) - sqrt(-0.5 + x1)")
    jobs = [["identities", "--spec", EX03], ["identities", "--spec", UNEQUAL]]
    fused = _run(jobs, capsys)
    assert [code for code, _, _ in fused] == [3, 1]
    assert fused[0][2].startswith("singular domain: identity residuals were evaluable at only ")
    _phased(monkeypatch)
    assert _run(jobs, capsys) == fused


def _unbuildable(m, V):
    raise RuntimeError("cannot build the curvature identity")


@pytest.mark.parametrize(
    "break_identities, error, code",
    [
        (lambda mp: mp.setattr(identities, "_curvature_identity_residuals", _unbuildable), "internal error:\n", 5),
        (lambda mp: _with_extra_residual(mp, "1/(x1 - x1)"), "singular domain: accepted 0 of 200", 3),
    ],
    ids=["building", "sampling"],
)
def test_an_identity_error_surfaces_only_after_a_pass(capsys, monkeypatch, break_identities, error, code):
    break_identities(monkeypatch)
    jobs = [["identities", "--spec", EX03], ["verify", "--identities", "--spec", UNEQUAL]]
    fused = _run(jobs, capsys)
    [(passing, out, err), failing] = fused
    assert (passing, out) == (code, "")
    assert err.startswith(error)
    assert failing[0] == 1 and failing[2] == ""
    assert "identities" not in json.loads(failing[1])
    with monkeypatch.context() as patch:
        # A failing job whose identity groups are built and sampled anyway.
        _always_fused(patch)
        assert _run(jobs, capsys) == fused
    _phased(monkeypatch)
    assert _run(jobs, capsys) == fused
