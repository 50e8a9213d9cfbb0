"""Reference values for the benchmark's output checks, computed apart
from ricciplane.

Spec strings become Python functions (``^`` -> ``**``, the ``math``
functions), and every derivative is a fourth-order central difference.
Nothing here calls ``ricciplane.parse``, ``differentiate`` or
``compile_expr``, so a fault in the symbolic layers cannot hide in the
reference.

Curvature is assembled from log-derivatives of the metric components,
u = log|f1| and w = log|f2|:

    h21 = f1 w_1,  h12 = f2 u_2,
    rho = f1^2 (u_1 w_1 + w_11 - w_1^2) + f2^2 (w_2 u_2 + u_22 - u_2^2),

which is E1(h21) + E2(h12) - h21^2 - h12^2 written out.  Differencing
the logarithms keeps the reference accurate on the family metrics,
whose rho is a cancellation of terms up to 1e4 in size.
"""

from __future__ import annotations

import functools
import math
import re

_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sech": lambda v: 1.0 / math.cosh(v),
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": lambda v: math.copysign(1.0, v) if v != 0.0 else math.nan,
}
_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|([-+*/^()]))")

# Steps of the central differences, relative to max(1, |x|): first
# derivatives balance truncation (h^4) against rounding (eps/h), second
# derivatives (eps/h^2) need a longer step.
STEP_1 = 1e-3
STEP_2 = 3e-3


@functools.lru_cache(maxsize=256)
def function_of(text: str):
    """The spec expression `text` as a Python callable (x1, x2) -> float."""
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unexpected character in {text!r} at {pos}")
        ident = m.group(2)
        if ident is not None and ident not in _FUNCTIONS and ident not in ("x1", "x2"):
            raise ValueError(f"unknown identifier {ident!r} in {text!r}")
        pos = m.end()
    code = compile(f"lambda x1, x2: ({text.replace('^', '**')})", "<reference>", "eval")
    fn = eval(code, {"__builtins__": {}, **_FUNCTIONS})

    def real(x1: float, x2: float) -> float:
        v = fn(x1, x2)
        if isinstance(v, complex):
            raise ValueError(f"{text!r} is not real at ({x1}, {x2})")
        return float(v)

    return real


def _step(x: float, rel: float) -> float:
    return rel * max(1.0, abs(x))


def d1(g, x: float) -> float:
    """dg/dx by the five-point central difference."""
    h = _step(x, STEP_1)
    return (g(x - 2 * h) - 8 * g(x - h) + 8 * g(x + h) - g(x + 2 * h)) / (12 * h)


def d2(g, x: float) -> float:
    """d^2g/dx^2 by the five-point central difference."""
    h = _step(x, STEP_2)
    return (-g(x - 2 * h) + 16 * g(x - h) - 30 * g(x) + 16 * g(x + h) - g(x + 2 * h)) / (12 * h * h)


def _log_partials(f, x1: float, x2: float) -> tuple[float, float, float, float]:
    """Partials (l_1, l_2, l_11, l_22) of l = log|f|."""

    def along1(t):
        return math.log(abs(f(t, x2)))

    def along2(t):
        return math.log(abs(f(x1, t)))

    return d1(along1, x1), d1(along2, x2), d2(along1, x1), d2(along2, x2)


class Curvature:
    """h12, h21 and rho of the metric (f1, f2) at one point, with the
    magnitude of the largest term of rho as `scale`."""

    def __init__(self, f1_text: str, f2_text: str, x1: float, x2: float):
        f1, f2 = function_of(f1_text), function_of(f2_text)
        self.f1, self.f2 = f1(x1, x2), f2(x1, x2)
        u1, u2, _, u22 = _log_partials(f1, x1, x2)
        w1, w2, w11, _ = _log_partials(f2, x1, x2)
        self.h21 = self.f1 * w1
        self.h12 = self.f2 * u2
        a1, a2 = self.f1**2, self.f2**2
        terms = (a1 * u1 * w1, a1 * w11, a1 * w1 * w1, a2 * w2 * u2, a2 * u22, a2 * u2 * u2)
        self.rho = terms[0] + terms[1] - terms[2] + terms[3] + terms[4] - terms[5]
        self.scale = max(abs(t) for t in terms)


def frame_field(spec: dict):
    """Orthonormal-frame components (V1, V2) of the spec's field as
    callables; coordinate components are divided by f1 and f2."""
    metric, field = spec["metric"], spec["field"]
    a, b = function_of(field["V1"]), function_of(field["V2"])
    if field.get("frame", "orthonormal") != "coordinate":
        return a, b
    f1, f2 = function_of(metric["f1"]), function_of(metric["f2"])
    return (lambda x1, x2: a(x1, x2) / f1(x1, x2)), (lambda x1, x2: b(x1, x2) / f2(x1, x2))


def residuals(spec: dict, x1: float, x2: float) -> tuple[float, float, float, float]:
    """R1..R4 of nabla V = Q at one point, for a spec with a `field`.

    R1 = E1(V1) - h12 V2 - rho    R2 = E2(V2) - h21 V1 - rho
    R3 = E1(V2) + h12 V1          R4 = E2(V1) + h21 V2
    """
    v1, v2 = frame_field(spec)
    c = Curvature(spec["metric"]["f1"], spec["metric"]["f2"], x1, x2)
    e1 = lambda v: c.f1 * d1(lambda s: v(s, x2), x1)  # noqa: E731
    e2 = lambda v: c.f2 * d1(lambda t: v(x1, t), x2)  # noqa: E731
    V1, V2 = v1(x1, x2), v2(x1, x2)
    return (
        e1(v1) - c.h12 * V2 - c.rho,
        e2(v2) - c.h21 * V1 - c.rho,
        e1(v2) + c.h12 * V1,
        e2(v1) + c.h21 * V2,
    )
