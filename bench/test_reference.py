"""Checks of the benchmark's reference evaluator against closed forms.

Run with ``python3 bench/test_reference.py`` (or under pytest).
"""

from __future__ import annotations

import json
import math
import unittest
from pathlib import Path

import reference

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GRID = [-1.0 + 2.0 * i / 20 for i in range(21)]


class ReferenceTest(unittest.TestCase):
    def test_expression_translation(self):
        f = reference.function_of("-2^2 + x1^-1*3 - cosh(x2)/sech(x2)")
        self.assertAlmostEqual(f(0.5, 0.3), -4.0 + 6.0 - math.cosh(0.3) ** 2, places=12)
        with self.assertRaises(ValueError):
            reference.function_of("__import__('os')")

    def test_ex03_rho_closed_form(self):
        spec = json.loads((CORPUS / "ex03_cosh_metric.json").read_text())
        for x1 in GRID:
            c = reference.Curvature(spec["metric"]["f1"], spec["metric"]["f2"], x1, 0.3)
            exact = math.cosh(x1) * math.sinh(x1) - math.cosh(x1) ** 2
            self.assertLess(abs(c.rho - exact), 1e-9 * (1 + abs(exact)), x1)
            self.assertLess(abs(c.h21 - math.cosh(x1)), 1e-10, x1)
            self.assertLess(abs(c.h12), 1e-12)

    def test_ex04_unequal_r4_closed_form(self):
        spec = json.loads((CORPUS / "ex04_rotating_unequal_scales.json").read_text())
        sup = 0.0
        for x1 in GRID:
            for x2 in GRID:
                r4 = reference.residuals(spec, x1, x2)[3]
                exact = math.exp(x1) * (math.cos(0.5 * x2) + math.sin(0.5 * x2))
                self.assertLess(abs(r4 - exact), 1e-9 * (1 + abs(exact)), (x1, x2))
                sup = max(sup, abs(r4))
        self.assertEqual(round(sup, 4), 3.6887)

    def test_passing_corpus_field_has_zero_residuals(self):
        spec = json.loads((CORPUS / "ex03_cosh_metric.json").read_text())
        for x1 in GRID[::4]:
            for r in reference.residuals(spec, x1, -0.4):
                self.assertLess(abs(r), 1e-9)


if __name__ == "__main__":
    unittest.main()
