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

import numpy as np

from .correlation import CorrelationResult
from .errors import IoError, ParseError
from .signal import Signal


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, lineno: int, what: str = "value") -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", lineno) from None
    return v


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    return raw.split("\n")


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


def read_csv(path) -> Signal:
    """Read a signal CSV. Raises ParseError (with the 1-based line number in
    the message) on malformed content and IoError on OS-level failure."""
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise ParseError("empty file", 1)
    meta = _parse_header(lines[0], 1, ("dt", "t0"))
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        samples.append(_parse_float(text, lineno))
    if not samples:
        raise ParseError("no samples after header", 1)
    if not all(math.isfinite(s) for s in samples):
        bad = next(i for i, s in enumerate(samples) if not math.isfinite(s))
        raise ParseError("non-finite sample", bad + 2)
    return Signal(meta["dt"], meta["t0"], np.asarray(samples))


def read_correlation_csv(path) -> CorrelationResult:
    """Read a correlation CSV back into a CorrelationResult (mode is not
    stored in the file and defaults to full)."""
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise ParseError("empty file", 1)
    meta = _parse_header(lines[0], 1, ("dt",))
    lags, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'lag,value', got {text!r}", lineno)
        lag = _parse_float(parts[0], lineno, "lag")
        if not (abs(lag) < 2.0**63 and lag.is_integer()):
            raise ParseError(f"bad lag {parts[0]!r}", lineno)
        lags.append(int(lag))
        values.append(_parse_float(parts[1], lineno))
    if not lags:
        raise ParseError("no rows after header", 1)
    return CorrelationResult(meta["dt"], np.asarray(lags), np.asarray(values))


def write_csv(path, obj) -> None:
    """Write a Signal, SignSeries, CorrelationResult, or SimTrace as CSV."""
    from .circuit.sim import SimTrace

    if isinstance(obj, Signal):
        body = [f"# dt={_fmt(obj.dt)} t0={_fmt(obj.t0)}"]
        body.extend(_fmt(v) for v in obj.samples)
    elif isinstance(obj, CorrelationResult):
        body = [f"# dt={_fmt(obj.dt)}"]
        body.extend(f"{lag},{_fmt(v)}" for lag, v in zip(obj.lags, obj.values))
    elif isinstance(obj, SimTrace):
        names = list(obj.nodes)
        body = [",".join(names)]
        cols = [obj.nodes[name] for name in names]
        for row in zip(*cols):
            body.append(",".join(_fmt(v) for v in row))
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")
    text = "\n".join(body) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(path)!r}: {exc}") from exc
