"""Hot inner loops, with backend selection at import time.

The compiled C module (_core.c, built by setup.py) is used when present;
otherwise the numpy fallback is. BACKEND names the one selected: "compiled"
or "python". Both backends take the same arguments; low-pass and delayed_op
results are identical, and common correlation sums agree up to
summation-order rounding. lowpass filters every row of a writable (rows, n)
float64 array in place and returns it. delayed_op fills and returns its out,
a writable C-contiguous float64 array of len(steps) rows that overlaps no
input; any other out is TypeError or ValueError. On whole-number samples
the compiled common sums run in int32 where they cannot overflow; such sums
are exact on every path, so both backends then agree bitwise. Classic
correlation is np.correlate on every backend.
"""

from . import _fallback

try:
    from . import _core as _impl  # type: ignore[no-redef]

    BACKEND = "compiled"
except ImportError:
    _impl = _fallback
    BACKEND = "python"

xcorr_common = _impl.xcorr_common
lowpass = _impl.lowpass
delayed_op = _impl.delayed_op


def xcorr(f, g, lag_lo: int, lag_hi: int, common: bool):
    """Sum over the overlap of the common (or, if not common, plain) product, for each lag.

    Lag k aligns g[i - k] with f[i]; samples outside either signal contribute
    nothing. Returns one float64 value per lag in [lag_lo, lag_hi]; the
    caller applies the dt scale.
    """
    return (xcorr_common if common else _fallback.xcorr_classic)(f, g, lag_lo, lag_hi)

