"""CSV reading and writing for signals, correlation results, and sim traces.

Formats are deliberately plain. A signal file is a `# dt=<float> t0=<float>`
header followed by one sample per line. A correlation file is `# dt=<float>`
followed by `lag,value` rows. A trace file is a header row naming the node
columns followed by one row per time step. Floats are written with repr,
which round-trips exactly, comfortably inside the 1e-12 contract.
"""

from __future__ import annotations

import math
import os

from .circuit.sim import SimTrace
from .correlation import CorrelationResult
from .errors import IoError, ParseError
from .signal import Signal


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, lineno: int, what: str = "value") -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", lineno) from None


def _parse_header(line: str, lineno: int, keys: tuple[str, ...]) -> dict[str, float]:
    if not line.startswith("#"):
        raise ParseError("missing '# ...' header line", lineno)
    found = {}
    for tok in line[1:].split():
        if "=" not in tok:
            raise ParseError(f"bad header token {tok!r}", lineno)
        key, _, val = tok.partition("=")
        found[key] = _parse_float(val, lineno, key)
    for key in keys:
        if key not in found:
            raise ParseError(f"header missing {key!r}", lineno)
    if not (found["dt"] > 0 and math.isfinite(found["dt"])):
        raise ParseError(f"bad dt {found['dt']!r}", lineno)
    return found


def _read_rows(path, keys: tuple[str, ...], parse_row, what: str):
    """The header values of a CSV file, and parse_row(text, line number) of
    each of its non-blank lines after the header, stripped."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    if not lines[0].strip():
        raise ParseError("empty file", 1)
    meta = _parse_header(lines[0], 1, keys)
    body = [parse_row(text, lineno) for lineno, line in enumerate(lines[1:], start=2) if (text := line.strip())]
    if not body:
        raise ParseError(f"no {what} after header", 1)
    return meta, body


def _parse_sample(text: str, lineno: int) -> float:
    value = _parse_float(text, lineno)
    if not math.isfinite(value):
        raise ParseError("non-finite sample", lineno)
    return value


def read_csv(path) -> Signal:
    """Read a signal CSV. Raises ParseError (with the 1-based line number in
    the message) on malformed content and IoError on OS-level failure."""
    meta, samples = _read_rows(path, ("dt", "t0"), _parse_sample, "samples")
    return Signal(meta["dt"], meta["t0"], samples)


def _parse_correlation_row(text: str, lineno: int) -> tuple[int, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'lag,value', got {text!r}", lineno)
    lag = _parse_float(parts[0], lineno, "lag")
    if not (abs(lag) < 2.0**63 and lag.is_integer()):
        raise ParseError(f"bad lag {parts[0]!r}", lineno)
    return int(lag), _parse_float(parts[1], lineno)


def read_correlation_csv(path) -> CorrelationResult:
    """Read a correlation CSV back into a CorrelationResult (mode is not
    stored in the file and defaults to full)."""
    meta, rows = _read_rows(path, ("dt",), _parse_correlation_row, "rows")
    return CorrelationResult(meta["dt"], *zip(*rows))  # the lags, then the values


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with \\n line ends; raises IoError if the OS refuses."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(path)!r}: {exc}") from exc


def write_csv(path, obj) -> None:
    """Write a Signal, SignSeries, CorrelationResult, or SimTrace as CSV."""
    if isinstance(obj, Signal):
        body = [f"# dt={_fmt(obj.dt)} t0={_fmt(obj.t0)}"]
        body.extend(_fmt(v) for v in obj.samples)
    elif isinstance(obj, CorrelationResult):
        body = [f"# dt={_fmt(obj.dt)}"]
        body.extend(f"{lag},{_fmt(v)}" for lag, v in zip(obj.lags, obj.values))
    elif isinstance(obj, SimTrace):
        body = [",".join(obj.nodes)]
        body.extend(",".join(_fmt(v) for v in row) for row in zip(*obj.nodes.values()))
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")
    write_text(path, "\n".join(body) + "\n")
