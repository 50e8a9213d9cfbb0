"""The benchmark's workloads: the CLI jobs each one runs and the checks
on every job's output.

Checks compare against `reference` (finite differences of the spec
strings, computed apart from ricciplane) or against a property the
method must have; none compares against stored output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

CHECK_POINTS = 6  # seeded points per reference comparison
RHO_TOL = 1e-5  # |printed - reference| <= RHO_TOL * (1 + |reference|)
VALUE_TOL = 1e-8  # same, for fields and derived f1 (no second derivatives)
FLAT_REL = 1e-7  # reference |rho| / (1 + term scale) at or below: flat
CURVED_REL = 1e-4  # at or above: curved; in between the reference abstains
R4_GRID = 31  # n x n grid, corners included, for the supremum of |R4|
ROUNDING = 1e-5  # residual maxima up to this are rounding error (F-branch1-scale)

CORPUS_SPECS = (
    "ex01a_frame_field_e1",
    "ex01b_frame_field_e2",
    "ex02_exponential_metric",
    "ex03_cosh_metric",
    "ex04_rotating_equal_scales",
    "ex04_rotating_unequal_scales",
    "ex05_exp_with_constant",
    "ex06_constant_metric",
)
# Known answers from corpus/README.md: the k1 != k2 instantiation fails.
FAILING_SPECS = {"ex04_rotating_unequal_scales"}
DENSE_SPECS = ("ex03_cosh_metric", "ex04_rotating_equal_scales", "ex04_rotating_unequal_scales")

# f2 shapes of the family draws; a > 0 keeps f2 and f2' positive on
# x1 in [0.25, 1.25], so every family hypothesis holds.
F2_POOL = (
    "exp({a}*x1)",
    "cosh({a}*x1) + 2",
    "sinh({a}*x1) + 2",
    "x1^3 + {a}*x1 + 5",
    "exp({a}*x1) + x1^2",
    "log(1 + {a}*x1) + 2",
    "exp({a}*x1)*cosh(x1)",
    "cosh({a}*x1)^2 + exp({a}*x1) + 1",
)
FAMILY_DOMAIN = {"x1": [0.25, 1.25], "x2": [-1.0, 1.0]}

# Known-fault jobs: each fails on every run until its fault is mended.
NAN_PASS_SPEC = {
    "metric": {"f1": "1", "f2": "1"},
    "field": {"frame": "orthonormal", "V1": "x1^400 - x1^399*x1 + x1", "V2": "0"},
    "domain": {"x1": [10.0, 20.0], "x2": [-1.0, 1.0]},
}
BRANCH1_SCALE_SPEC = {
    "family": {"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": 1},
    "domain": {"x1": [8.0, 12.0], "x2": [-1.0, 1.0]},
}
IDENTITY_SCALE_SPEC = {
    "family": {"kind": "branch2", "f2": "x1^3+5", "c": 1.476, "c1": 1, "c2": -0.5},
    "domain": FAMILY_DOMAIN,
}

Check = Callable[[int, dict], list]


@dataclass(frozen=True)
class Fault:
    """A known fault of the program.  `mend(exit_code, report)` returns
    the output the job would give without the fault when the output
    shows the fault's symptom, else None.  A job is failed by the fault
    alone when its check passes on the mended output."""

    name: str
    mend: Callable[[int, dict], "tuple[int, dict] | None"]


def _mend_nan_pass(code: int, report: dict):
    # Symptom: a pass with every residual maximum exactly 0, as NaN
    # residuals never raise the running maximum.
    if code == 0 and report.get("verdict") == "pass" and report.get("residual_max") == [0.0] * 4:
        return 1, {**report, "verdict": "fail"}
    return None


def _mend_branch1_scale(code: int, report: dict):
    # Symptom: a fail on residual maxima of rounding size, above the
    # absolute tolerance of riccifield.verify.
    maxima = report.get("residual_max") or [math.inf]
    if code == 1 and report.get("verdict") == "fail" and max(maxima) <= ROUNDING:
        return 0, {**report, "verdict": "pass"}
    return None


def _mend_identity_scale(code: int, report: dict):
    # Symptom: a fail whose only false identity is curvature_identity.
    verdicts = report.get("identities") or {}
    if code == 1 and report.get("verdict") == "fail" and verdicts.get("curvature_identity") is False:
        return 0, {**report, "verdict": "pass", "identities": {**verdicts, "curvature_identity": True}}
    return None


NAN_PASS = Fault("F-nan-pass", _mend_nan_pass)
BRANCH1_SCALE = Fault("F-branch1-scale", _mend_branch1_scale)
IDENTITY_SCALE = Fault("F-identity-scale", _mend_identity_scale)


@dataclass
class Job:
    """One CLI invocation.  `key` names it: jobs with the same key must
    print byte-identical reports.  `check(exit_code, report)` returns the
    problems found, an empty list when the output is right.  `fault` is
    the known fault the job may show.  A fault on a job whose inputs come
    from the seed shows on some seeds only; with `fault_counts` false its
    hits are tallied apart from `failed`, which must stay the same share
    of `attempted` in every run."""

    key: str
    argv: list
    check: Check
    fault: Fault | None = None
    fault_counts: bool = True


def write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _points(spec: dict, tag: str) -> list:
    dom = spec.get("domain") or {}
    (a1, b1), (a2, b2) = dom.get("x1", (-1.0, 1.0)), dom.get("x2", (-1.0, 1.0))
    rng = random.Random(tag)
    return [(rng.uniform(a1, b1), rng.uniform(a2, b2)) for _ in range(CHECK_POINTS)]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_curvature(spec: dict, report: dict, points: list) -> list:
    """Printed h12, h21, rho and r against the reference, and `flat`."""
    problems = []
    metric, section = spec["metric"], report["curvature"]
    printed = {name: reference.function_of(section[name]) for name in ("h12", "h21", "rho", "r")}
    worst = 0.0
    for x1, x2 in points:
        c = reference.Curvature(metric["f1"], metric["f2"], x1, x2)
        for name, want in (("h12", c.h12), ("h21", c.h21), ("rho", c.rho), ("r", 2.0 * c.rho)):
            got = printed[name](x1, x2)
            if not _close(got, want, RHO_TOL):
                problems.append(f"{name} = {got!r} at ({x1}, {x2}), reference {want!r}")
        worst = max(worst, abs(c.rho) / (1.0 + c.scale))
    flat = True if worst <= FLAT_REL else False if worst >= CURVED_REL else None
    if flat is None:
        problems.append(f"reference cannot tell flat from curved (|rho|/scale {worst:.3g})")
    elif report["flat"] is not flat:
        problems.append(f"flat = {report['flat']}, reference {flat}")
    if report["rho_range"] != section["rho_range"]:
        problems.append("rho_range differs from curvature.rho_range")
    return problems


def check_values(label: str, printed: str, want, points: list) -> list:
    got = reference.function_of(printed)
    return [
        f"{label} = {got(x1, x2)!r} at ({x1}, {x2}), reference {want(x1, x2)!r}"
        for x1, x2 in points
        if not _close(got(x1, x2), want(x1, x2), VALUE_TOL)
    ]


def check_verdict(code: int, report: dict, passes: bool) -> list:
    want = (0, "pass") if passes else (1, "fail")
    if (code, report.get("verdict")) != want:
        return [f"exit {code} verdict {report.get('verdict')!r}, expected exit {want[0]} verdict {want[1]!r}"]
    return []


def check_verify(spec: dict, passes: bool, identities: bool, points: list, r4_bounds=None) -> Check:
    """verify / identities on a spec with a field.  `r4_bounds`, when
    given, is (lower factor, supremum) for the reported max |R4|."""

    def check(code: int, report: dict) -> list:
        problems = check_verdict(code, report, passes)
        problems += check_curvature(spec, report, points)
        v1, v2 = reference.frame_field(spec)
        problems += check_values("V1", report["field"]["V1"], v1, points)
        problems += check_values("V2", report["field"]["V2"], v2, points)
        maxima = report["residual_max"]
        tolerance = report["spec"]["sampling"]["tolerance"]
        if passes and not all(0.0 <= v <= tolerance for v in maxima):
            problems.append(f"residual_max {maxima} above tolerance {tolerance}")
        if r4_bounds is not None:
            lower, sup = r4_bounds
            if not lower * sup <= maxima[3] <= (1 + 1e-9) * sup:
                problems.append(f"max |R4| = {maxima[3]!r} outside [{lower}, 1 + 1e-9] x supremum {sup!r}")
        if identities and passes:
            verdicts = report.get("identities", {})
            expected = {"ric_vv", "scalar_divergence", "curvature_identity", "closedness"}
            if set(verdicts) != expected or not all(v is True for v in verdicts.values()):
                problems.append(f"identities {verdicts}")
        return problems

    return check


def check_curvature_job(spec: dict, points: list) -> Check:
    def check(code: int, report: dict) -> list:
        return check_verdict(code, report, True) + check_curvature(spec, report, points)

    return check


def check_oracle(code: int, report: dict) -> list:
    problems = check_verdict(code, report, True)
    for name, entry in report["fd"].items():
        if not entry["max_rel_error"] <= report["fd_tolerance"] or entry["points_used"] < 1:
            problems.append(f"fd {name}: {entry}")
    return problems


def check_nan_pass(code: int, report: dict) -> list:
    # V1 equals x1, so R1 = 1 everywhere: any outcome but pass is right.
    return [] if code in (1, 3) else [f"exit {code}: pass on a field with R1 = 1"]


def expected_f1(family: dict):
    """f1 of the family's metric, with f2' by central difference."""
    f2 = reference.function_of(family["f2"])
    k, c = float(family.get("k", 0.0)), float(family["c"])

    def f1(x1, x2):
        v, dv = f2(x1, x2), reference.d1(lambda t: f2(t, x2), x1)
        if family["kind"] == "branch1":
            return (k * v * v + c) / (2.0 * dv)
        return c * v * v / dv

    return f2, f1


def expected_field(family: dict, f2):
    c = float(family["c"])
    if family["kind"] == "branch1":
        return (lambda x1, x2: c / f2(x1, x2)), (lambda x1, x2: 0.0)
    c1, c2, s = float(family["c1"]), float(family["c2"]), math.copysign(1.0, c)
    return (
        lambda x1, x2: s * (c2 * math.cos(abs(c) * x2) - c1 * math.sin(abs(c) * x2)),
        lambda x1, x2: c1 * math.cos(abs(c) * x2) + c2 * math.sin(abs(c) * x2),
    )


def check_construct(spec: dict, emitted: Path, points: list, with_curvature: bool = True) -> Check:
    """construct: the derived pair against the family formulas, its
    verdict, the emitted spec file, and flatness of branch2 metrics."""
    family = spec["family"]
    f2, f1 = expected_f1(family)
    v1, v2 = expected_field(family, f2)

    def check(code: int, report: dict) -> list:
        problems = check_verdict(code, report, True)
        derived = report["derived_spec"]
        problems += check_values("f1", derived["metric"]["f1"], f1, points)
        problems += check_values("f2", derived["metric"]["f2"], f2, points)
        problems += check_values("V1", derived["field"]["V1"], v1, points)
        problems += check_values("V2", derived["field"]["V2"], v2, points)
        if json.loads(emitted.read_text(encoding="utf-8")) != derived:
            problems.append("emitted spec differs from the report's derived_spec")
        if with_curvature:
            problems += check_curvature(derived, report, points)
        if family["kind"] == "branch2" and report["flat"] is not True:
            problems.append("branch2 metric not flat")
        return problems

    return check


def check_derived(derived: Path, kind: str, tag: str) -> Check:
    """identities on a spec that construct emitted."""

    def check(code: int, report: dict) -> list:
        spec = json.loads(derived.read_text(encoding="utf-8"))
        problems = check_verify(spec, True, True, _points(spec, tag))(code, report)
        if kind == "branch2" and report["flat"] is not True:
            problems.append("branch2 metric not flat")
        return problems

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A workload writes its spec files in `prepare`, names an untimed
    warm-up job, and yields the same operations in every round."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random(f"{type(self).__name__}:{seed}")

    def prepare(self, tmp: Path) -> list:
        """Write the spec files; return the warm-up job's argv."""
        raise NotImplementedError

    def jobs(self, round_no: int) -> list:
        """The jobs of one round."""
        if round_no == 0:
            self._jobs = self._build()
        return self._jobs

    def _build(self) -> list:
        raise NotImplementedError


def r4_range(spec: dict, samples: int) -> tuple[float, float]:
    """(lower factor, supremum) for the sampled max |R4| of
    ex04_rotating_unequal_scales.  The supremum is the reference's max
    on the R4_GRID grid with the corners, where it is attained.  |R4| is
    within 10% of it on 0.7% of the square only, which 200 uniform
    points miss for 24% of seeds; at 200 samples the lower factor is
    0.6 (missed with probability 2e-10), from 20 000 on it is 0.9."""
    (a1, b1), (a2, b2) = spec["domain"]["x1"], spec["domain"]["x2"]
    n = R4_GRID
    grid = [(a1 + (b1 - a1) * i / (n - 1), a2 + (b2 - a2) * j / (n - 1)) for i in range(n) for j in range(n)]
    sup = max(abs(reference.residuals(spec, x1, x2)[3]) for x1, x2 in grid)
    return (0.9 if samples >= 20000 else 0.6), sup


class Corpus(Workload):
    """The eight corpus specs through four commands at 200 samples, plus
    the known-fault job F-nan-pass."""

    def prepare(self, tmp: Path) -> list:
        self.nan_spec = write_spec(tmp / "F-nan-pass.json", NAN_PASS_SPEC)
        return ["curvature", "--spec", self.corpus_spec("ex01a_frame_field_e1")[0], "--samples", "200"]

    def corpus_spec(self, name: str) -> tuple[str, dict]:
        path = self.root / "corpus" / f"{name}.json"
        return str(path), json.loads(path.read_text(encoding="utf-8"))

    def _build(self) -> list:
        jobs = self.spec_jobs(CORPUS_SPECS, ("curvature", "verify", "identities", "oracle"), 200)
        jobs.append(Job("F-nan-pass", ["verify", "--spec", self.nan_spec], check_nan_pass, fault=NAN_PASS))
        return jobs

    def spec_jobs(self, names, commands, samples: int) -> list:
        """Each command on each corpus spec, with a seeded --seed."""
        jobs = []
        for name in names:
            path, spec = self.corpus_spec(name)
            passes = name not in FAILING_SPECS
            r4 = None if passes else r4_range(spec, samples)
            for command in commands:
                key = f"{name}:{command}"
                pts = _points(spec, f"{self.seed}:{key}")
                if command == "curvature":
                    check = check_curvature_job(spec, pts)
                elif command == "oracle":
                    check = check_oracle
                else:
                    check = check_verify(spec, passes, command == "identities", pts, r4)
                argv = [command, "--spec", path, "--samples", str(samples), "--seed", str(self.rng.randrange(1, 2**31))]
                jobs.append(Job(key, argv, check))
        return jobs


class Dense(Corpus):
    """verify, curvature and identities on three corpus specs at
    20 000 samples."""

    def prepare(self, tmp: Path) -> list:
        path = self.corpus_spec("ex04_rotating_equal_scales")[0]
        return ["curvature", "--spec", path, "--samples", "20000", "--seed", "1"]

    def _build(self) -> list:
        return self.spec_jobs(DENSE_SPECS, ("verify", "curvature", "identities"), 20000)


class Family(Workload):
    """Seeded draws, each f2 shape once as branch1 and once as branch2
    in every round, so that every round has the same make-up; each
    constructed with --emit-spec and then checked by `identities` on the
    emitted file; plus the known-fault jobs F-branch1-scale and
    F-identity-scale."""

    def prepare(self, tmp: Path) -> list:
        self.tmp = tmp
        self.fixed = {
            "F-branch1-scale": write_spec(tmp / "F-branch1-scale.json", BRANCH1_SCALE_SPEC),
            "F-identity-scale": write_spec(tmp / "F-identity-scale.json", IDENTITY_SCALE_SPEC),
        }
        self._round = (0, self._draw(0))
        warm_spec = {"family": {"kind": "branch1", "f2": "exp(x1)", "k": 1, "c": 1}, "domain": FAMILY_DOMAIN}
        warm = write_spec(tmp / "warmup.json", warm_spec)
        return ["construct", "--spec", warm, "--emit-spec", str(tmp / "warmup.derived.json")]

    def _draw(self, round_no: int) -> list:
        """Write this round's draw specs; return (key, spec, path, seed)."""
        rng = random.Random(f"family:{self.seed}:{round_no}")
        pairs = [(shape, kind) for shape in F2_POOL for kind in ("branch1", "branch2")]
        draws = []
        for i, (shape, kind) in enumerate(pairs):
            # Parameters keep three decimals so the spec strings stay short.
            a, c = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
            family = {"kind": kind, "f2": shape.format(a=a), "c": c}
            if kind == "branch1":
                family["k"] = round(rng.uniform(0.5, 2.0), 3)
            else:
                family["c1"], family["c2"] = round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)
            spec = {"family": family, "domain": FAMILY_DOMAIN}
            key = f"draw-{round_no}-{i}"
            draws.append((key, spec, write_spec(self.tmp / f"{key}.json", spec), str(rng.randrange(1, 2**31))))
        return draws

    def jobs(self, round_no: int) -> list:
        draws = self._round[1] if self._round[0] == round_no else self._draw(round_no)
        jobs = []
        for key, spec, path, seed in draws:
            kind = spec["family"]["kind"]
            derived = self.tmp / f"{key}.derived.json"
            argv = ["construct", "--spec", path, "--emit-spec", str(derived), "--seed", seed]
            check = check_construct(spec, derived, _points(spec, f"{self.seed}:{key}"))
            jobs.append(Job(f"{key}:construct", argv, check))
            # The curvature identity of a branch2 pair fails on some seeds
            # (F-identity-scale); such a hit is tallied, not counted in
            # `failed`, and the fixed F-identity-scale job below carries
            # the fault into `failed` in every round.
            check = check_derived(derived, kind, f"{self.seed}:{key}:identities")
            argv = ["identities", "--spec", str(derived), "--seed", seed]
            fault = IDENTITY_SCALE if kind == "branch2" else None
            jobs.append(Job(f"{key}:identities", argv, check, fault=fault, fault_counts=False))

        spec, derived = BRANCH1_SCALE_SPEC, self.tmp / "F-branch1-scale.derived.json"
        argv = ["construct", "--spec", self.fixed["F-branch1-scale"], "--emit-spec", str(derived)]
        # The reference cannot resolve rho on x1 in [8, 12], where it is a
        # cancellation of terms near 1e10, so this job skips that check.
        check = check_construct(spec, derived, _points(spec, "F-branch1-scale"), with_curvature=False)
        jobs.append(Job("F-branch1-scale", argv, check, fault=BRANCH1_SCALE))

        spec, derived = IDENTITY_SCALE_SPEC, self.tmp / "F-identity-scale.derived.json"
        argv = ["construct", "--spec", self.fixed["F-identity-scale"], "--emit-spec", str(derived)]
        check = check_construct(spec, derived, _points(spec, "F-identity-scale"))
        jobs.append(Job("F-identity-scale:construct", argv, check))
        argv = ["identities", "--spec", str(derived)]
        check = check_derived(derived, "branch2", "F-identity-scale")
        jobs.append(Job("F-identity-scale", argv, check, fault=IDENTITY_SCALE))
        return jobs


WORKLOADS = {"corpus": Corpus, "dense": Dense, "family": Family}
