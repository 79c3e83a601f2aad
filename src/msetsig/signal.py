"""Signal containers, waveform generators, and time manipulation.

A Signal is a uniformly sampled real-valued function of time: a sample
interval ``dt``, a start time ``t0``, and a finite 1-D array of finite
float64 samples. A SignSeries is a Signal whose samples are exactly +1
or -1.

Both are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParam, NonFiniteSample, NonPositiveDt, ShapeMismatch, finite, named, real, whole


def _sample_interval(dt) -> float:
    value = real(dt)
    if not (value > 0.0 and np.isfinite(value)):
        raise NonPositiveDt(f"dt must be positive and finite, got {dt!r}")
    return value


def _real_array(value, what: str, whole: bool = False) -> np.ndarray:
    """A new read-only array of ``value``, which must be one or more real numbers
    in one dimension: float64 (None reads as NaN), or int64 if ``whole``, when
    each must be a whole number in range. Anything else raises BadParam."""
    try:
        arr = np.array(value)  # a copy
        if arr.dtype.kind == "c" or (arr.dtype.kind == "O" and any(map(np.iscomplexobj, arr.flat))):
            raise TypeError  # numpy would drop the imaginary part with only a warning
        if not (whole and arr.dtype.kind == "i"):  # an integer array is whole already
            arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != 1 or arr.size < 1:
        raise BadParam(f"{what} must be one or more real numbers in one dimension")
    if whole and arr.dtype.kind == "f" and not np.all((np.rint(arr) == arr) & (np.abs(arr) < 2.0**63)):
        raise BadParam(f"{what} must be whole numbers")
    arr = arr.astype(np.int64 if whole else np.float64, copy=False)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class Signal:
    """A uniformly sampled real-valued signal.

    Attributes:
        dt: Sample interval in seconds, > 0 and finite.
        t0: Time of the first sample in seconds, finite.
        samples: Read-only float64 array, every value finite, length >= 1.
    """

    dt: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        dt, t0 = _sample_interval(self.dt), finite(self.t0, "t0")
        arr = _real_array(self.samples, "samples")
        self._check_values(arr)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "samples", arr)

    def _check_values(self, arr: np.ndarray) -> None:
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteSample(int(bad[0]))

    def __len__(self) -> int:
        return self.samples.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dt={self.dt}, t0={self.t0}, n={len(self)})"

    def times(self) -> np.ndarray:
        """Time axis: t0 + k*dt for each sample index k (inf past the float range)."""
        with np.errstate(over="ignore"):
            return self.t0 + self.dt * np.arange(len(self))

    def with_samples(self, samples) -> "Signal":
        """A new Signal with the same timing metadata and different samples."""
        return Signal(self.dt, self.t0, samples)


class SignSeries(Signal):
    """A Signal whose samples are all exactly +1 or -1."""

    def _check_values(self, arr: np.ndarray) -> None:
        bad = np.flatnonzero(np.abs(arr) != 1.0)
        if bad.size:
            raise BadParam(f"sign series value at index {int(bad[0])} is not +1 or -1")

    @property
    def values(self) -> np.ndarray:
        """The samples, under the name the sign functions use."""
        return self.samples


def check_same_shape(*items: Signal, error=ShapeMismatch) -> None:
    """Raise ``error`` unless all items agree exactly in length, dt, and t0.

    No implicit resampling or alignment is ever performed; callers align first.
    """
    first = items[0]
    for other in items[1:]:
        if len(other) != len(first):
            raise error(f"length mismatch: {len(first)} vs {len(other)}")
        if other.dt != first.dt:
            raise error(f"dt mismatch: {first.dt} vs {other.dt}")
        if other.t0 != first.t0:
            raise error(f"t0 mismatch: {first.t0} vs {other.t0}")


def _phase(t, frequency, phase, **_):
    return (2.0 * np.pi * frequency * t + phase,)


def _pulse(t, dt, t0, center, width, **_):
    span = t.size * dt
    c = t0 + span / 2.0 if center is None else center
    w = span / 8.0 if width is None else width
    if w <= 0:
        raise BadParam(f"width must be > 0, got {w}")
    return t - c, w


def _noise(t, seed, **_):
    if seed is None:
        raise BadParam("white_noise requires an explicit seed")
    return (np.random.default_rng(whole(seed, "seed", 0)).standard_normal(t.size),)


# kind -> (inputs, shape): inputs(t, **gen's arguments) gives the arrays from
# which shape(*arrays) makes the unit-amplitude waveform on the time grid t
_WAVEFORMS = {
    "sine": (_phase, np.sin),
    "cosine": (_phase, np.cos),
    "square": (_phase, lambda arg: np.where(np.sin(arg) >= 0.0, 1.0, -1.0)),
    "gaussian_pulse": (_pulse, lambda x, w: np.exp(-(x**2) / (2.0 * w * w))),
    "triangle_pulse": (_pulse, lambda x, w: np.maximum(0.0, 1.0 - np.abs(x) / w)),
    "white_noise": (_noise, lambda z: z),
}
GEN_KINDS = tuple(_WAVEFORMS)


def gen(
    kind: str,
    dt: float,
    n: int,
    *,
    amplitude: float = 1.0,
    frequency: float = 1.0,
    phase: float = 0.0,
    t0: float = 0.0,
    center: Optional[float] = None,
    width: Optional[float] = None,
    seed: Optional[int] = None,
) -> Signal:
    """Generate n samples of a named waveform on the grid t0 + k*dt.

    Kinds:
        sine            amplitude * sin(2*pi*frequency*t + phase)
        cosine          amplitude * cos(2*pi*frequency*t + phase)
        square          +amplitude where the sine phase is >= 0, else -amplitude
        gaussian_pulse  amplitude * exp(-(t-center)^2 / (2*width^2))
        triangle_pulse  amplitude * max(0, 1 - |t-center|/width)
        white_noise     amplitude * standard normal draws (explicit seed required)

    ``center`` defaults to the middle of the window and ``width`` to an eighth
    of the window. Generation is pure: identical arguments give identical
    samples; there is no global RNG state.

    Raises:
        NonPositiveDt: dt is not positive and finite.
        BadParam: a float argument or a sample is not finite, negative
            amplitude or frequency, non-positive width, a bad n or seed,
            unknown kind, or white_noise without a seed.
    """
    if not named(kind, _WAVEFORMS):
        raise BadParam(f"unknown generator kind {kind!r}; expected one of {', '.join(GEN_KINDS)}")
    n = whole(n, "n", 1)
    dt = _sample_interval(dt)
    args = dict(dt=dt, seed=seed)
    for name, value, least in (("amplitude", amplitude, 0), ("frequency", frequency, 0), ("phase", phase, None),
                               ("t0", t0, None), ("center", center, None), ("width", width, None)):
        none = value is None and name in ("center", "width")  # None gives their defaults
        args[name] = None if none else finite(value, name, least)

    inputs, shape = _WAVEFORMS[kind]
    with np.errstate(all="ignore"):
        try:
            t = args["t0"] + dt * np.arange(n)
        except (ValueError, MemoryError):  # numpy cannot size or allocate n elements
            t = None
        if t is None or t.size != n:  # near 2**63, arange sizes n elements as none
            raise BadParam(f"n={n} is too many samples")
        samples = args["amplitude"] * shape(*inputs(t, **args))
    return Signal(dt, args["t0"], finite(samples, f"{kind} samples", array=True))


def shift(f: Signal, k: int) -> Signal:
    """Move samples right by k positions (left for negative k), zero-filling.

    The output has the same length and metadata; values shifted past either
    end are discarded. Boundary handling is zero-padding, not circular.
    """
    k = whole(k, "k")
    n = len(f)
    out = np.zeros(n, dtype=np.float64)
    if k >= 0:
        if k < n:
            out[k:] = f.samples[: n - k]
    else:
        if -k < n:
            out[: n + k] = f.samples[-k:]
    return Signal(f.dt, f.t0, out)
