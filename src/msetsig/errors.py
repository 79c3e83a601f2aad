"""Exception hierarchy.

Every data-level failure raises a subclass of MsetError; the CLI maps these to
exit code 2 and prints the class name, so the names are part of the contract.
"""

import numpy as np


class MsetError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveDt(MsetError):
    """Sample interval must be a positive finite number."""


class NonFiniteSample(MsetError):
    """A sample value is NaN or infinite."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite sample at index {index}")


class BadParam(MsetError):
    """A parameter value violates its constraint."""


def whole(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, if it is a whole number no less than ``least``.
    Integral floats such as 2.0 pass; anything else raises BadParam."""
    try:  # int() would drop a complex number's imaginary part with only a warning
        n = None if np.iscomplexobj(value) else int(value)
        ok = n == value and (least is None or n >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise BadParam(f"{what} must be an integer{bound}, got {value!r}")
    return n


def finite(value, what: str, least: float | None = None, array: bool = False):
    """``value``, if it is a finite real number no less than ``least`` or, if
    ``array``, an ndarray of finite real numbers; anything else raises BadParam."""
    try:  # the dtype kind (bool, int, unsigned, float) refuses strings, None, objects and complex values
        arr = np.asarray(value)  # the array itself, if value is one
        ok = arr.dtype.kind in "biuf" and (arr.ndim == 0 or array and arr is value) and np.all(np.isfinite(arr))
    except ValueError:  # a ragged sequence
        ok = False
    if not ok:
        raise BadParam(f"{what} must be finite")
    if least is not None and value < least:
        raise BadParam(f"{what} must be >= {least}, got {value!r}")
    return value


class ShapeMismatch(MsetError):
    """Operands disagree in length, dt, or t0."""


class BadMode(MsetError):
    """Requested correlation mode is not applicable to the operands."""


class DegenerateDenominator(MsetError):
    """Similarity denominator is zero (both signals identically zero)."""


class FlatResult(MsetError):
    """Peak analysis is undefined when all values are equal or none is positive."""


class ParseError(MsetError):
    """A file does not match its CSV contract."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


class IoError(MsetError):
    """Underlying file operation failed."""


class ExprSyntaxError(MsetError):
    """Expression text does not match the grammar."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class DepthExceeded(MsetError):
    """Expression nesting is deeper than the parser allows."""


class UnboundVariable(MsetError):
    """An expression variable has no binding in the environment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class UnboundInput(MsetError):
    """A netlist source node was not given an input signal."""


class MetadataMismatch(MsetError):
    """Simulation inputs disagree in length, dt, or t0."""


class NetlistError(MsetError):
    """A netlist violates its structural invariants."""
