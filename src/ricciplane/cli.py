"""Command-line front end.

Subcommands: curvature, verify, construct, oracle, identities (an alias
for verify --identities).  Jobs are JSON spec files; reports are JSON
on stdout (and --out), byte-identical across runs for identical specs.

Exit codes: 0 pass, 1 verification fail, 2 spec/parse error (an
expression nested too deeply to process, or an output path that cannot
be written, included), 3 singular domain, 4 family hypothesis
violation, 5 internal error (an unexpected exception; its traceback
goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections.abc import Iterator
from io import TextIOBase

from . import __version__, numeric
from .expr import (
    Domain,
    EvaluationError,
    Expr,
    ParseError,
    _to_strings,
    parse,
)
from .families import (
    Branch1,
    Branch2,
    ConstantComponents,
    ConstantMetric,
    FamilyParams,
    HypothesisError,
    construct,
)
from .geometry import DiagonalMetric, curvature_sweep, is_flat, ricci
from .identities import PotentialFunction, gradient_field, identity_groups, identity_verdicts
from .numeric import DomainTooSingularError, SamplingConfig, fd_validate
from .riccifield import (
    FrameField,
    from_coordinates,
    residual_system,
    verify,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SPEC_ERROR = 2
EXIT_SINGULAR_DOMAIN = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5


class SpecError(ValueError):
    """The job spec file is malformed."""


# ---------------------------------------------------------------------------
# Spec loading
# ---------------------------------------------------------------------------


def load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SpecError(f"cannot read spec file {path}: {err}") from None
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"spec file {path} is not valid JSON: {err}") from None
    except RecursionError:
        raise SpecError(f"spec file {path} is nested too deeply") from None
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    return spec


def _parse_expr(text, label: str) -> Expr:
    if not isinstance(text, str):
        raise SpecError(f"{label} must be an expression string, got {text!r}")
    try:
        return parse(text)
    except ParseError as err:
        raise SpecError(f"{label}: {err}") from None


def parse_domain_flag(text: str) -> dict:
    """Parse --domain "x1:lo,hi;x2:lo,hi" into spec-domain form."""
    out = {}
    for part in text.split(";"):
        if ":" not in part:
            raise SpecError(f"bad --domain segment {part!r}")
        name, _, rng = part.partition(":")
        name = name.strip()
        if name not in ("x1", "x2"):
            raise SpecError(f"bad --domain coordinate {name!r}")
        if name in out:
            raise SpecError(f"repeated --domain coordinate {name!r}")
        pieces = rng.split(",")
        if len(pieces) != 2:
            raise SpecError(f"bad --domain range {rng!r}")
        try:
            out[name] = [float(pieces[0]), float(pieces[1])]
        except ValueError:
            raise SpecError(f"bad --domain range {rng!r}") from None
    return out


def _number(value, name: str, integral: bool = False) -> float | int:
    """The finite JSON number `value`, integral when `integral`: an int then, else a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integral and value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def _section(spec: dict, key: str) -> dict:
    """A copy of the optional object spec[key]; {} when it is absent."""
    section = spec.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise SpecError(f'"{key}" must be a JSON object, got {section!r}')
    return dict(section)


def effective_domain(spec: dict, args) -> Domain:
    dom = _section(spec, "domain")
    if getattr(args, "domain", None):
        dom.update(parse_domain_flag(args.domain))
    ranges = [dom.get("x1", [-1.0, 1.0]), dom.get("x2", [-1.0, 1.0])]
    if not all(isinstance(r, list) and len(r) == 2 for r in ranges):
        raise SpecError("bad domain: x1 and x2 must be [lo, hi] pairs")
    try:
        x1, x2 = [tuple(_number(bound, "a domain bound") for bound in r) for r in ranges]
        return Domain(x1_range=x1, x2_range=x2, guard=_number(dom.get("guard", 1e-6), "guard"))
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"bad domain: {err}") from None


def effective_config(spec: dict, args) -> SamplingConfig:
    sampling = _section(spec, "sampling")
    if getattr(args, "seed", None) is not None:
        sampling["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        sampling["samples"] = args.samples
    if getattr(args, "tolerance", None) is not None:
        sampling["tolerance"] = args.tolerance
    try:
        values = {}
        for name, default in SamplingConfig._field_defaults.items():
            values[name] = _number(sampling.get(name, default), name, integral=name in ("samples", "seed"))
        return SamplingConfig(**values)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"bad sampling config: {err}") from None


def spec_metric(spec: dict) -> DiagonalMetric:
    metric = spec.get("metric")
    if not isinstance(metric, dict) or "f1" not in metric or "f2" not in metric:
        raise SpecError('spec needs "metric": {"f1": ..., "f2": ...}')
    return DiagonalMetric(
        f1=_parse_expr(metric["f1"], "metric.f1"),
        f2=_parse_expr(metric["f2"], "metric.f2"),
    )


def spec_field(spec: dict, m: DiagonalMetric) -> tuple[FrameField, PotentialFunction | None]:
    """The spec's field, or else the gradient field of its potential,
    with that potential (None for a field)."""
    field = spec.get("field")
    if field is None and spec.get("potential") is not None:
        potential = PotentialFunction(_parse_expr(spec["potential"], "potential"))
        return gradient_field(m, potential), potential
    if not isinstance(field, dict) or "V1" not in field or "V2" not in field:
        raise SpecError('spec needs "field": {"frame": ..., "V1": ..., "V2": ...}')
    frame = field.get("frame", "orthonormal")
    v1 = _parse_expr(field["V1"], "field.V1")
    v2 = _parse_expr(field["V2"], "field.V2")
    if frame == "orthonormal":
        return FrameField(V1=v1, V2=v2), None
    if frame == "coordinate":
        return from_coordinates(m, v1, v2), None
    raise SpecError(f'field.frame must be "orthonormal" or "coordinate", got {frame!r}')


# Each family kind's parameter class; its fields are the parameters, in
# the order they are read.  f1 and f2 are expressions, the others numbers.
_FAMILY_KINDS = {
    "constant_components": ConstantComponents,
    "branch1": Branch1,
    "branch2": Branch2,
    "constant_metric": ConstantMetric,
}


def spec_family(spec: dict) -> FamilyParams:
    family = spec.get("family")
    if not isinstance(family, dict) or "kind" not in family:
        raise SpecError('spec needs "family": {"kind": ..., ...}')
    kind = family["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KINDS:
        raise SpecError(f"unknown family kind {kind!r}; expected one of {sorted(_FAMILY_KINDS)}")
    cls = _FAMILY_KINDS[kind]
    names = cls._fields
    missing = [k for k in names if k not in family]
    if missing:
        raise SpecError(f"family {kind!r} is missing parameters {missing}")
    params = {}
    try:
        for name in names:
            if name in ("f1", "f2"):
                params[name] = _parse_expr(family[name], f"family.{name}")
                continue
            params[name] = _number(family[name], name)
        return cls(**params)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"bad family parameters: {err}") from None


def _check_job_shape(spec: dict, command: str) -> None:
    present = [k for k in ("field", "potential", "family") if spec.get(k) is not None]
    if command in ("verify", "identities"):
        if len(present) != 1:
            raise SpecError(f"verify jobs need exactly one of field/potential/family, found {present or 'none'}")
        if present == ["family"]:
            raise SpecError("family jobs are run with the construct command")
    if command == "construct" and present != ["family"]:
        raise SpecError(f"construct jobs need exactly a family section, found {present or 'none'}")


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _echo_domain(d: Domain) -> dict:
    return {"x1": list(d.x1_range), "x2": list(d.x2_range), "guard": d.guard}


def _echo_spec(spec: dict, d: Domain, cfg: SamplingConfig) -> dict:
    echo = {"domain": _echo_domain(d), "sampling": cfg._asdict()}
    for key in ("metric", "field", "potential", "family"):
        if spec.get(key) is not None:
            echo[key] = spec[key]
    return echo


def _report_head(command: str, spec: dict, d: Domain, cfg: SamplingConfig, m: DiagonalMetric | None, ranges=()) -> dict:
    """The keys every report starts with, and the curvature keys when
    there is a metric `m` to report on, with its sampled `ranges` (see
    `curvature_section`)."""
    head = {"version": __version__, "command": command, "seed": cfg.seed, "spec": _echo_spec(spec, d, cfg)}
    if m is not None:
        section = curvature_section(m, ranges)
        head.update(curvature=section, rho_range=section["rho_range"], flat=is_flat(m, d, cfg))
    return head


def curvature_section(m: DiagonalMetric, ranges) -> dict:
    """h12, h21, rho and r with their sampled ranges, as
    `geometry.curvature_sweep` gives them."""
    curv = ricci(m)
    texts = _to_strings([curv.h12, curv.h21, curv.rho, curv.r])  # r = 2*rho reads rho's text
    section = {}
    for name, text, (lo, hi) in zip(("h12", "h21", "rho", "r"), texts, ranges):
        section[name] = text
        section[f"{name}_range"] = [lo, hi]
    return section


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _output(path: str, newline: str | None = None) -> Iterator[TextIOBase]:
    """The file `path`, open for writing; a path that cannot be written is a spec error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as err:
        raise SpecError(f"cannot write {path}: {err.strerror or err}") from None


def _write_report(report: dict, args) -> None:
    text = render_report(report)
    if getattr(args, "out", None):
        with _output(args.out) as fh:
            fh.write(text)
    sys.stdout.write(text)


def emit_grid(path: str, exprs: dict, d: Domain, size: int) -> None:
    """CSV grid of sampled values on a regular size x size lattice, each
    cell evaluated before the file is opened: a failing job writes none."""
    if size < 2:
        raise SpecError(f"--grid-size must be at least 2, got {size}")
    values = numeric._one_by_one(list(exprs.values()))
    rows = [["x1", "x2", *exprs]]
    for i in range(size):
        x1 = d.x1_range[0] + (d.x1_range[1] - d.x1_range[0]) * i / (size - 1)
        for j in range(size):
            x2 = d.x2_range[0] + (d.x2_range[1] - d.x2_range[0]) * j / (size - 1)
            rows.append([repr(x1), repr(x2), *("nan" if v is None else repr(v) for v in values(x1, x2))])
    import csv  # only this command writes CSV

    with _output(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_curvature(args, spec: dict, d: Domain, cfg: SamplingConfig) -> int:
    m = spec_metric(spec)
    if spec.get("field") is not None or spec.get("potential") is not None:
        spec_field(spec, m)  # a malformed field is a spec error here too
    report = _report_head("curvature", spec, d, cfg, m, curvature_sweep(m, d, cfg)[1])
    report["verdict"] = "pass"
    if args.emit_grid:
        emit_grid(args.emit_grid, {"rho": ricci(m).rho}, d, args.grid_size)
    _write_report(report, args)
    return EXIT_PASS


def _verify_report(spec, m, V, d, cfg, args, potential=None) -> tuple[dict, int]:
    # The identity residuals are swept with the residuals, and read only after a pass.
    identities = identity_groups(m, V, potential) if getattr(args, "identities", False) else None
    result = verify(m, V, d, cfg, identities and (build() for build in identities.values()))
    command = "verify" if args.command == "identities" else args.command
    report = _report_head(command, spec, d, cfg, m, result.curvature_ranges)
    V1, V2 = _to_strings([V.V1, V.V2])
    report.update(
        field={"V1": V1, "V2": V2},
        residual_max=list(result.max_abs),
        points_used=result.points_used,
        verdict=result.verdict,
    )
    exit_code = EXIT_PASS if result.passed else EXIT_FAIL
    if identities and result.passed:
        verdicts = identity_verdicts(m, V, d, cfg, potential)
        report["identities"] = verdicts
        if not all(verdicts.values()):
            report["verdict"] = "fail"
            exit_code = EXIT_FAIL
    if args.emit_grid:
        residuals = residual_system(m, V)
        exprs = {"rho": ricci(m).rho}
        exprs.update({f"R{i+1}": r for i, r in enumerate(residuals)})
        emit_grid(args.emit_grid, exprs, d, args.grid_size)
    return report, exit_code


def cmd_verify(args, spec: dict, d: Domain, cfg: SamplingConfig) -> int:
    m = spec_metric(spec)
    V, potential = spec_field(spec, m)
    report, exit_code = _verify_report(spec, m, V, d, cfg, args, potential=potential)
    _write_report(report, args)
    return exit_code


def cmd_construct(args, spec: dict, d: Domain, cfg: SamplingConfig) -> int:
    params = spec_family(spec)
    m, V = construct(params, d, cfg)
    f1, f2, V1, V2 = _to_strings([m.f1, m.f2, V.V1, V.V2])
    derived = {
        "metric": {"f1": f1, "f2": f2},
        "field": {"frame": "orthonormal", "V1": V1, "V2": V2},
        "domain": _echo_domain(d),
        "sampling": cfg._asdict(),
    }
    if not (emit_path := args.emit_spec):
        from pathlib import PurePath  # next to the spec, as pathlib spells it: no "./", no "//"

        emit_path = str(PurePath(args.spec).with_suffix("")) + ".derived.json"
    with _output(emit_path) as fh:
        fh.write(json.dumps(derived, indent=2, sort_keys=True) + "\n")
    report, exit_code = _verify_report(spec, m, V, d, cfg, args)
    proof_only = isinstance(params, Branch1) and params.k == 0.0
    report.update(derived_spec=derived, derived_spec_path=emit_path, proof_only_case=proof_only)
    _write_report(report, args)
    return exit_code


def cmd_oracle(args, spec: dict, d: Domain, cfg: SamplingConfig) -> int:
    m = spec_metric(spec)
    curv = ricci(m)
    exprs = {"h12": curv.h12, "h21": curv.h21, "rho": curv.rho}
    if spec.get("field") is not None or spec.get("potential") is not None:
        V, _ = spec_field(spec, m)
        for i, r in enumerate(residual_system(m, V)):
            exprs[f"R{i+1}"] = r
    section = {}
    worst = 0.0
    for name, outcome in zip(exprs, fd_validate(list(exprs.values()), d, cfg, guards=[m.f1, m.f2])):
        worst = max(worst, outcome.max_rel_error)
        section[name] = {
            "max_rel_error": outcome.max_rel_error,
            "points_used": outcome.points_used,
            "points_skipped": outcome.points_skipped,
        }
    verdict = "pass" if worst <= cfg.fd_tolerance else "fail"
    report = _report_head("oracle", spec, d, cfg, None)
    report.update(fd=section, fd_tolerance=cfg.fd_tolerance, verdict=verdict)
    _write_report(report, args)
    return EXIT_PASS if verdict == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_command(subs, name: str, help_text: str, grid: bool = True, **defaults) -> argparse.ArgumentParser:
    """The subcommand `name` with the flags every command takes, and with
    --emit-grid and --grid-size unless `grid` is false."""
    sub = subs.add_parser(name, help=help_text)
    sub.add_argument("--spec", required=True, help="path to the JSON job spec")
    sub.add_argument("--out", help="also write the JSON report to this path")
    sub.add_argument("--seed", type=int, help="override sampling.seed")
    sub.add_argument("--samples", type=int, help="override sampling.samples")
    sub.add_argument("--tolerance", type=float, help="override sampling.tolerance")
    sub.add_argument("--domain", help='override domain, e.g. "x1:-1,1;x2:-1,1"')
    if grid:
        sub.add_argument("--emit-grid", help="write a CSV grid of sampled values to this path")
        sub.add_argument("--grid-size", type=int, default=21, help="grid resolution per axis")
    sub.set_defaults(**defaults)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricci",
        description="Curvature and Ricci-vector-field checks for diagonal plane metrics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "curvature", "curvature data and flatness of the metric", handler=cmd_curvature)
    p = _add_command(subs, "verify", "check nabla V = Q for the spec's field or potential", handler=cmd_verify)
    p.add_argument("--identities", action="store_true", help="append consequence-identity verdicts")
    _add_command(subs, "identities", "alias for verify --identities", handler=cmd_verify, identities=True)
    p = _add_command(subs, "construct", "build a family pair, emit its spec, and verify it", handler=cmd_construct)
    p.add_argument("--emit-spec", help="path for the derived metric+field spec")
    # oracle writes no grid, so it takes no grid flag.
    _add_command(
        subs, "oracle", "finite-difference validation of all derived expressions", grid=False, handler=cmd_oracle
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` returns a fresh
    namespace on every call, and argparse's objects form reference
    cycles that a parser per call would leave to the cycle collector."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # One job: its verdicts share each guarded sampling pass.
        with numeric._job_stream():
            spec = load_spec(args.spec)
            _check_job_shape(spec, args.command)
            return args.handler(args, spec, effective_domain(spec, args), effective_config(spec, args))
    except (SpecError, ParseError) as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except DomainTooSingularError as err:
        print(f"singular domain: {err}", file=sys.stderr)
        return EXIT_SINGULAR_DOMAIN
    except HypothesisError as err:
        print(f"{err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except EvaluationError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_SINGULAR_DOMAIN
    except RecursionError:
        # The expression walks recurse once per level of nesting.
        print("spec error: expression nested too deeply", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except Exception:
        # Never let a crash share exit 1 with a verification fail.
        import traceback

        print(f"internal error:\n{traceback.format_exc()}", file=sys.stderr, end="")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
