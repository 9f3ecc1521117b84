"""Call counters for the tests that pin how often a layer runs."""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

from morsealg import WeightedFunction


def count_calls(stack: contextlib.ExitStack, fn) -> mock.Mock:
    """A mock wrapping fn, patched into every morsealg namespace that binds fn."""
    counted = mock.Mock(wraps=fn)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "morsealg" and vars(module).get(fn.__name__) is fn:
            stack.enter_context(mock.patch.object(module, fn.__name__, counted))
    return counted


def count_derivatives(stack: contextlib.ExitStack) -> mock.Mock:
    """A mock wrapping WeightedFunction.derivative, patched on the class."""
    derivative = WeightedFunction.derivative
    return stack.enter_context(
        mock.patch.object(WeightedFunction, "derivative", autospec=True, side_effect=derivative)
    )
