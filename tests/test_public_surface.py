"""The package's public names and the shape of a grid state."""

from __future__ import annotations

import importlib
from dataclasses import fields

import pytest

import morsealg
from morsealg import make_state, weight_exponent

MODULES = ("cli", "functions", "model", "operators", "plot", "scalars", "scan", "spectral")


def test_every_exported_name_resolves():
    assert len(morsealg.__all__) == len(set(morsealg.__all__))
    for name in morsealg.__all__:
        assert hasattr(morsealg, name), name


@pytest.mark.parametrize(
    "name", ["QuantumNumbers", "make_quantum_numbers", "eigenvalue_one", "eigenvalue_two"]
)
def test_removed_names_stay_removed(name):
    assert not hasattr(morsealg, name)
    for mod in MODULES:
        assert not hasattr(importlib.import_module(f"morsealg.{mod}"), name), mod


@pytest.mark.parametrize("n, v", [(0, 0), (0, 1), (3, 7), (5, 3), (150, 300)])
def test_state_carries_the_weight_exponent_once(n, v):
    state = make_state(n, v)
    assert [f.name for f in fields(state)] == ["wavefunction", "normalization"]
    assert state.wavefunction.s == weight_exponent(n, v)
