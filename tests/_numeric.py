"""Floating-point values of the exact types, for numerical spot checks.

The package itself never rounds; these evaluators live with the tests that
compare its exact results against finite differences and plain arithmetic.
"""

from __future__ import annotations

import cmath
import math

from morsealg import LaurentPoly, RadicalScalar, WeightedFunction


def to_complex(x: RadicalScalar) -> complex:
    """Floating-point value (complex when the unit carries i)."""
    re_part = 0.0
    im_part = 0.0
    for (r, m), q in x.terms.items():
        v = float(q) * math.sqrt(r)
        if m:
            im_part += v
        else:
            re_part += v
    return complex(re_part, im_part)


def poly_value(p: LaurentPoly, y: complex) -> complex:
    """p(y): the rational parts summed in exponent order, then times the unit."""
    total = 0j
    unit = 1
    for e, c in sorted(p.items()):
        (((r, m), q),) = c.terms.items()
        total = total + float(q) * y**e
        unit = math.sqrt(r) * (1j if m else 1)
    return total * unit


def weighted_value(f: WeightedFunction, y: float) -> complex:
    """Numerical value at y > 0 (complex if coefficients carry an i part)."""
    if y <= 0:
        raise ValueError("weighted functions live on y > 0")
    return cmath.exp(-y / 2) * y ** float(f.s) * poly_value(f.poly, y)
