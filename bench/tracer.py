"""Outer-span tracer for the benchmark's traced run.

The tracer wraps public functions of ricciplane from outside, under
every module attribute that binds them (``from .expr import simplify``
makes a binding of its own in each importing module), and restores
every binding when it is closed.  Only the outermost span of a
recursive function is recorded: while a span is open, its defining
module's binding points at the original function again, so recursion
runs unwrapped.

Spans are kept in memory as (name, start, end, parent index, job id)
and written out by `write`.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> (module, function names).  Each listed function is one
# layer boundary; the identity checks the CLI calls share one name.
LAYERS = {
    "expr.simplify": ("expr", ("simplify",)),
    "expr.differentiate": ("expr", ("differentiate",)),
    "expr.compile_expr": ("expr", ("compile_expr",)),
    "expr.evaluate_with_scale": ("expr", ("evaluate_with_scale",)),
    "expr.is_probably_zero": ("expr", ("is_probably_zero",)),
    "numeric.sample_points": ("numeric", ("sample_points",)),
    "numeric.sampled_max_abs": ("numeric", ("sampled_max_abs",)),
    "numeric.sampled_range": ("numeric", ("sampled_range",)),
    "numeric.nowhere_zero": ("numeric", ("nowhere_zero",)),
    "numeric.fd_validate": ("numeric", ("fd_validate",)),
    "geometry.ricci": ("geometry", ("ricci",)),
    "geometry.is_flat": ("geometry", ("is_flat",)),
    "riccifield.residual_system": ("riccifield", ("residual_system",)),
    "riccifield.verify": ("riccifield", ("verify",)),
    "identities.checks": (
        "identities",
        (
            "check_ric_vv",
            "check_scalar_divergence",
            "check_curvature_identity",
            "check_steady_soliton",
            "check_laplacian_scalar",
        ),
    ),
    "families.construct": ("families", ("construct",)),
    "cli.render_report": ("cli", ("render_report",)),
}
JOB = "job"
PACKAGE = "ricciplane"


class Tracer:
    """Records spans of the wrapped layers; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.accepted: dict[int, int] = {}
        self.trees: list = []
        self.job = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- binding management -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for name, (module_name, functions) in LAYERS.items():
                home = sys.modules[f"{PACKAGE}.{module_name}"]
                for attr in functions:
                    original = getattr(home, attr)
                    wrapper = self._wrap(name, original, home, attr)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, key, original))
                                setattr(module, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def _wrap(self, name: str, original, home, attr: str):
        spans, stack, clock, open_names = self.spans, self._stack, time.perf_counter, self._open

        def wrapper(*args, **kwargs):
            if name in open_names:
                return original(*args, **kwargs)
            open_names.add(name)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            setattr(home, attr, original)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                setattr(home, attr, wrapper)
                open_names.discard(name)
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            self._observe(name, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "numeric.sample_points":
            self.accepted[self.job] = self.accepted.get(self.job, 0) + len(result)
        elif name == "geometry.ricci":
            self.trees.append(result.rho)
        elif name == "riccifield.residual_system":
            self.trees.extend(result)

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job_id: int, fn):
        """Run `fn()` as job `job_id` under a root span; return its result."""
        self.job = job_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (JOB, start, end, -1, job_id)

    def take_trees(self) -> tuple[int, int, int]:
        """`count_nodes` of the rho and R1-R4 trees returned since the
        last call, then forget them."""
        counts = count_nodes(self.trees)
        self.trees = []
        return counts

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in s, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t, n = totals.get(name, (0.0, 0))
            totals[name] = (t + (end - start) - child[i], n + 1)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "job"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_nodes(roots) -> tuple[int, int, int]:
    """Counts over the structurally distinct trees among `roots`, each
    taken once however often it was rebuilt: (tree nodes, counting a
    shared subtree once for every reference to it; distinct node
    objects; structurally distinct nodes).  Interning lowers the second
    towards the third; the first depends on the trees' structure only."""
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    shapes: dict[tuple, int] = {}
    kept: set[int] = set()
    objects: set[int] = set()
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            key = id(node)
            if key in size:
                continue
            kids = node.children()
            if not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
                continue
            size[key] = 1 + sum(size[id(k)] for k in kids)
            shape = (
                type(node).__name__,
                getattr(node, "value", None),
                getattr(node, "var", None),
                getattr(node, "fn", None),
                tuple(canon[id(k)] for k in kids),
            )
            canon[key] = shapes.setdefault(shape, len(shapes))
        if canon[id(root)] in kept:
            continue
        kept.add(canon[id(root)])
        total += size[id(root)]
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) not in objects:
                objects.add(id(node))
                stack.extend(node.children())
    return total, len(objects), len(shapes)
