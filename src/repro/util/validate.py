"""Strict number checks shared by the scenario, execution and service
layers: ``int()``/``float()`` coerce booleans and strings, and a ``<= 0``
guard alone lets NaN through."""

from __future__ import annotations

import argparse
import math
import numbers
from typing import Any


def strict_int(value: Any, name: str) -> int:
    """``value`` as an ``int``, accepting only integers and finite
    integral floats (``2.0``, and ``1e3`` from a JSON file).

    Booleans, strings, fractional floats and non-finite numbers raise
    ``ValueError``, where ``int()`` would coerce or overflow.
    """
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def finite_float(value: Any, name: str) -> float:
    """``value`` as a ``float``; booleans, strings, NaN and infinities
    raise ``ValueError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def positive_float(value: Any, name: str) -> float:
    """A :func:`finite_float` above zero."""
    parsed = finite_float(value, name)
    if parsed <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return parsed


def positive_float_arg(text: str) -> float:
    """``argparse`` type: a finite number above zero, else a usage error."""
    try:
        return positive_float(float(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above zero, got {text!r}"
        ) from None
