"""The exit-code contract on random specs: every spec, however broken,
gives a documented exit code, never a traceback or an internal error."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ricciplane import cli

COMMANDS = ["curvature", "verify", "identities", "construct", "oracle"]
_ATOMS = ["x1", "x2", "0", "1", "2", "0.5", "1e999", "-0"]
_OPS = [" + ", " - ", "*", "/", "^"]
_FUNCTIONS = ["exp", "log", "sin", "cos", "sqrt", "abs", "sign", "tanh", "sech", "cosh"]


@st.composite
def _expression_texts(draw) -> str:
    """Grammatical text over the spec's expression language, sometimes
    broken by a stray character."""
    text = draw(st.sampled_from(_ATOMS))
    for _ in range(draw(st.integers(0, 6))):
        step = draw(st.sampled_from(["op", "apply", "negate"]))
        if step == "op":
            text = f"{text}{draw(st.sampled_from(_OPS))}{draw(st.sampled_from(_ATOMS))}"
        elif step == "apply":
            text = f"{draw(st.sampled_from(_FUNCTIONS))}({text})"
        else:
            text = f"-({text})"
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("()*^,$ "))) + text[at:]
    return text


_numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, width=16), st.text(max_size=3), st.none())
_ranges = st.one_of(st.lists(_numbers, min_size=0, max_size=3), _numbers, st.sampled_from([[0.25, 1.25], [-1.0, 1.0], [1.0, 1.0]]))
_specs = st.one_of(
    st.fixed_dictionaries(
        {"metric": st.fixed_dictionaries({"f1": _expression_texts(), "f2": _expression_texts()})},
        optional={
            "field": st.fixed_dictionaries(
                {"V1": _expression_texts(), "V2": _expression_texts()},
                optional={"frame": st.sampled_from(["orthonormal", "coordinate", "polar", 3])},
            ),
            "potential": _expression_texts(),
            "domain": st.fixed_dictionaries({"x1": _ranges, "x2": _ranges}, optional={"guard": _numbers}),
            "sampling": st.fixed_dictionaries({}, optional={"samples": _numbers, "seed": _numbers, "fd_step": _numbers}),
        },
    ).map(json.dumps),
    st.fixed_dictionaries(
        {"family": st.fixed_dictionaries(
            {"kind": st.sampled_from(["branch1", "branch2", "constant", "other", 1]), "f2": _expression_texts()},
            optional={"k": _numbers, "c": _numbers, "c1": _numbers, "c2": _numbers},
        )},
        optional={"domain": st.fixed_dictionaries({"x1": _ranges, "x2": _ranges})},
    ).map(json.dumps),
    st.text(max_size=40),
)


@given(_specs, st.sampled_from(COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_random_spec_gives_a_documented_exit_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, "--spec", str(path), "--samples", "20"]
        if command == "construct":
            argv += ["--emit-spec", str(Path(tmp) / "derived.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue()[-500:])
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
