"""Common-product functional, cross-correlation, similarity, and peak shape.

The common-product functional is the integral (plain Riemann sum, samples
times dt) of the elementwise common product. It behaves like an inner
product for matching purposes but is non-bilinear, which is exactly what
sharpens its correlation peaks. The classic inner-product functional is kept
alongside as the baseline.

Cross-correlation evaluates the chosen functional against a lag-shifted
second argument, one value per integer lag; samples shifted outside either
signal contribute zero (zero-padding overlap). Lags are mutually
independent, so evaluation parallelizes trivially; the provided kernels
evaluate them in ascending order for deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import _kernels
from .errors import BadMode, BadParam, DegenerateDenominator, FlatResult, ShapeMismatch, finite, named
from .ops import common_product
from .signal import Signal, _real_array, _sample_interval, check_same_shape

CORR_KINDS = ("common", "classic")
CORR_MODES = ("full", "valid")


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Correlation values over a contiguous range of integer sample lags.

    The physical lag time of entry i is lags[i] * dt.
    """

    dt: float
    lags: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    mode: str = "full"

    def __post_init__(self):
        lags = _real_array(self.lags, "lags", whole=True)
        values = _real_array(self.values, "correlation values")
        if lags.size != values.size:
            raise BadParam("lags and values must be of equal length")
        if int(lags[-1]) - int(lags[0]) != lags.size - 1 or not np.all(np.diff(lags) == 1):  # int64 diffs wrap
            raise BadParam("lags must be contiguous and strictly increasing")
        finite(values, "correlation values", array=True)
        if not named(self.mode, CORR_MODES):
            raise BadParam(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "dt", _sample_interval(self.dt))
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.lags.size

    def __repr__(self) -> str:
        return (
            f"CorrelationResult(dt={self.dt}, lags={self.lags[0]}..{self.lags[-1]}, "
            f"mode={self.mode!r})"
        )


@dataclass(frozen=True)
class PeakMetrics:
    """Shape of the dominant correlation peak.

    half_width is the width of the peak at half its height, in lag units,
    found by linear interpolation on each side (clamped to the lag range when
    the level is never crossed). secondary_ratio is the largest |value| at
    lags strictly outside that width, divided by the peak value.
    """

    peak_lag: int
    peak_value: float
    half_width: float
    secondary_ratio: float


def common_functional(f: Signal, g: Signal) -> float:
    """Integral of the elementwise common product over the shared support.

    Raises:
        BadParam: the integral overflows.
    """
    cp = common_product(f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # finite raises on an overflowed sum
        return finite(float(np.sum(cp.samples) * f.dt), "common functional")


def classic_functional(f: Signal, g: Signal) -> float:
    """Plain inner product with the dt measure: sum of f*g times dt.

    Raises:
        BadParam: the integral overflows.
    """
    check_same_shape(f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # finite raises on an overflowed sum
        return finite(float(np.sum(f.samples * g.samples) * f.dt), "classic functional")


def cross_correlate(f: Signal, g: Signal, kind: str = "common", mode: str = "full") -> CorrelationResult:
    """Correlate f against lag-shifted g, one functional value per lag.

    ``full`` covers every lag with at least one overlapping sample,
    -(len(g)-1) .. len(f)-1. ``valid`` covers only lags where g lies entirely
    inside f, 0 .. len(f)-len(g), and requires len(f) >= len(g).

    Raises:
        BadParam: unknown kind.
        ShapeMismatch: dt differs between the signals.
        BadMode: valid mode with len(f) < len(g), or unknown mode.
    """
    if not named(kind, CORR_KINDS):
        raise BadParam(f"unknown correlation kind {kind!r}")
    if f.dt != g.dt:
        raise ShapeMismatch(f"dt mismatch: {f.dt} vs {g.dt}")
    if not named(mode, CORR_MODES):
        raise BadMode(f"unknown mode {mode!r}")
    if mode == "valid" and len(f) < len(g):
        raise BadMode(f"valid mode requires len(f) >= len(g), got {len(f)} < {len(g)}")
    lag_lo, lag_hi = (-(len(g) - 1), len(f) - 1) if mode == "full" else (0, len(f) - len(g))
    with np.errstate(all="ignore"):  # an overflowed value fails the result's finite check
        values = _kernels.xcorr(f.samples, g.samples, lag_lo, lag_hi, kind == "common") * f.dt
    return CorrelationResult(f.dt, np.arange(lag_lo, lag_hi + 1), values, mode)


def jaccard_index(f: Signal, g: Signal) -> float:
    """Common functional normalized by the integral of max(|f|, |g|).

    Ranges over [-1, 1]; 1 for identical nonzero signals, -1 for a signal
    against its complement.

    Raises:
        DegenerateDenominator: both signals are identically zero.
        BadParam: either integral overflows.
    """
    num = common_functional(f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # finite raises on an overflowed sum
        den = np.sum(np.maximum(np.abs(f.samples), np.abs(g.samples))) * f.dt
        den = finite(float(den), "integral of max(|f|, |g|)")
    if den == 0.0:
        raise DegenerateDenominator("both signals are identically zero")
    return num / den


def _half_crossing(lags: np.ndarray, values: np.ndarray, peak_idx: int, level: float, step: int) -> float:
    """Lag coordinate where values first drops below level, walking from the
    peak in direction step; clamped to the end of the lag range."""
    i = peak_idx
    while 0 <= i + step < values.size:
        j = i + step
        if values[j] < level:
            # linear interpolation between (lags[i], values[i]) and (lags[j], values[j])
            frac = (values[i] - level) / (values[i] - values[j])
            return float(lags[i] + frac * step)
        i = j
    return float(lags[i])


def peak_metrics(r: CorrelationResult) -> PeakMetrics:
    """Locate the maximum value and measure its width at half height.

    Raises:
        FlatResult: all values are equal, or none is positive, so there is
            no peak to measure at half height.
        BadParam: the secondary ratio overflows (a tiny peak next to a
            large negative value).
    """
    values = r.values
    if np.all(values == values[0]):
        raise FlatResult("all correlation values are equal")
    peak_idx = int(np.argmax(values))
    peak_value = float(values[peak_idx])
    if peak_value <= 0.0:
        raise FlatResult(f"largest correlation value {peak_value!r} is not positive")
    level = peak_value / 2.0
    left = _half_crossing(r.lags, values, peak_idx, level, -1)
    right = _half_crossing(r.lags, values, peak_idx, level, +1)
    outside = (r.lags < left) | (r.lags > right)
    if not np.any(outside):
        secondary = 0.0
    else:
        secondary = finite(float(np.max(np.abs(values[outside]))) / peak_value, "secondary ratio")
    return PeakMetrics(
        peak_lag=int(r.lags[peak_idx]),
        peak_value=peak_value,
        half_width=right - left,
        secondary_ratio=secondary,
    )
