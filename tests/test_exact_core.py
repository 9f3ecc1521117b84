"""No floating point in the exact core, checked on the source itself and
at the LaurentPoly and DiffOp constructors.

plot.py, cli.py and model.physical_map are the documented float sites: the
first two draw and print, the last maps physical constants.  Everything
else computes with ints, Fractions and RadicalScalars only.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from morsealg import DiffOp, LaurentPoly

SRC = Path(__file__).parent.parent / "src" / "morsealg"

CORE = ["scalars.py", "functions.py", "operators.py", "spectral.py", "scan.py", "model.py"]

# functions defined inside CORE modules that may use floats
FLOAT_SITES = {"physical_map"}


def _float_uses(tree: ast.AST) -> list[str]:
    """Where tree imports cmath, calls float, complex, math.sqrt or math.exp, or writes a float."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in FLOAT_SITES:
            continue
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            found.append(f"{where}: import cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{where}: from cmath import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = {a.name for a in node.names} & {"sqrt", "exp"}
            if names:
                found.append(f"{where}: from math import {', '.join(sorted(names))}")
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("float", "complex"):
                found.append(f"{where}: {f.id}()")
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "math"
                and f.attr in ("sqrt", "exp")
            ):
                found.append(f"{where}: math.{f.attr}()")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize(
    "snippet",
    [
        "import cmath",
        "from cmath import exp",
        "from math import sqrt",
        "x = float(1)",
        "x = complex(1, 2)",
        "x = math.sqrt(2)",
        "x = math.exp(1)",
        "x = 0.5",
        "x = 2j",
        "def f():\n    return 1e-9",
    ],
)
def test_detector_finds_each_float_use(snippet):
    assert _float_uses(ast.parse(snippet))


def test_detector_skips_the_float_sites():
    assert not _float_uses(ast.parse("def physical_map(p):\n    return math.sqrt(8.0 * p)"))


@pytest.mark.parametrize("module", CORE)
def test_core_module_uses_no_float(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _float_uses(tree) == []


@pytest.mark.parametrize(
    "terms",
    [
        {0: 0.5},
        {1.0: LaurentPoly.one()},
        {1: 5},
        {0: 1},
        {0: LaurentPoly.one(), 2: 0.25},
        {"1": LaurentPoly.one()},
    ],
)
def test_diff_op_refuses_a_non_int_order_or_non_polynomial_coefficient(terms):
    with pytest.raises(TypeError):
        DiffOp(terms)


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: LaurentPoly({0.5: 1}), "0.5"),
        (lambda: LaurentPoly({Fraction(1, 2): 1}), "Fraction(1, 2)"),
        (lambda: LaurentPoly({"a": 1}), "'a'"),
        (lambda: LaurentPoly({0: 1, 2.0: 0}), "2.0"),
        (lambda: LaurentPoly.monomial(1.5, 2), "1.5"),
        (lambda: LaurentPoly.monomial(0.5, 0), "0.5"),
        (lambda: LaurentPoly.one().shifted(0.25), "0.25"),
        (lambda: DiffOp.derivative(1.5), "1.5"),
    ],
    ids=[
        "float",
        "fraction",
        "str",
        "float-zero-part",
        "monomial",
        "monomial-zero",
        "shifted",
        "derivative",
    ],
)
def test_non_int_exponent_or_order_is_refused(build, shown):
    with pytest.raises(TypeError, match=re.escape(shown)):
        build()


def test_diff_op_keeps_int_orders_and_polynomial_coefficients():
    op = DiffOp({0: LaurentPoly.one(), 2: LaurentPoly.zero()})
    assert op.terms == {0: LaurentPoly.one()}
