"""Numpy fallback for the compiled kernels, and the classic correlation that
every backend uses.

``xcorr_common``, ``lowpass`` and ``delayed_op`` take their compiled twins'
arguments: ``lowpass`` filters its rows in place and ``delayed_op`` fills the
caller's ``out``. Low-pass and delayed-op results are identical, and common
sums agree up to summation-order rounding (np.sum chooses its own order).
"""

import numpy as np


def xcorr_common(f: np.ndarray, g: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """Per-lag overlap sums of the common product; see the compiled twin."""
    nf = f.size
    ng = g.size
    out = np.zeros(lag_hi - lag_lo + 1, dtype=np.float64)
    for idx, k in enumerate(range(lag_lo, lag_hi + 1)):
        lo = max(0, k)
        hi = min(nf - 1, k + ng - 1)
        if hi < lo:
            continue
        a = f[lo : hi + 1]
        b = g[lo - k : hi - k + 1]
        sgn = np.where(a >= 0.0, 1.0, -1.0) * np.where(b >= 0.0, 1.0, -1.0)
        out[idx] = np.sum(sgn * np.minimum(np.abs(a), np.abs(b)))
    return out


def xcorr_classic(f: np.ndarray, g: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """Per-lag overlap sums of the plain product f[i] * g[i - k], by np.correlate.

    f is first cut to the samples a..b-1 that lags lo..hi read. A window of
    fewer lags than that (valid mode, say) is one 'valid' pass over the cut,
    zero-padded where a lag reaches past f: (hi - lo + 1) * g.size products.
    A wider one (full mode) is the 'full' pass over the cut, sliced:
    (b - a) * g.size products. Lags beyond the full range
    -(g.size-1) .. f.size-1 have no overlap and stay zero.
    """
    nf = f.size
    ng = g.size
    out = np.zeros(lag_hi - lag_lo + 1, dtype=np.float64)
    lo, hi = max(lag_lo, -(ng - 1)), min(lag_hi, nf - 1)
    if lo > hi:
        return out
    a, b = max(lo, 0), min(nf, hi + ng)
    if hi - lo + 1 < b - a:
        fp = f[a:b]
        if (a, b) != (lo, hi + ng):
            fp = np.pad(fp, (a - lo, hi + ng - b))
        values = np.correlate(fp, g, "valid")
    else:
        values = np.correlate(f[a:b], g, "full")[lo - a + ng - 1 : hi - a + ng]
    out[lo - lag_lo : hi - lag_lo + 1] = values
    return out


def lowpass(x: np.ndarray, alpha: float) -> np.ndarray:
    """Single-pole IIR along each row of x, (rows, n) float64, in place:
    y[n] = y[n-1] + alpha * (x[n] - y[n-1]), y[-1] = 0. Returns x."""
    for row in x:
        y, ys = 0.0, []
        for v in row.tolist():
            y += alpha * (v - y)
            ys.append(y)
        row[:] = ys
    return x


def _delayed(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Row r of x (1 or len(steps) rows) read steps[r] samples back, zero before the start."""
    n = x.shape[1]
    out = np.zeros((steps.size, n))
    for r, d in enumerate(np.minimum(steps, n).tolist()):
        out[r, d:] = x[r % x.shape[0], : n - d]
    return out


# op -> fn(p, q, *inputs) on the delayed input rows
_OPS = {
    "delay": lambda p, q, x: x,
    "inverting_amp": lambda p, q, x: -x,
    "comparator": lambda p, q, x, y: np.where(x >= y, p, q),
    "equivalence_gate": lambda p, q, x, y: np.where((x >= 0.0) == (y >= 0.0), p, q),
    "analog_switch": lambda p, q, x, y, z: np.where(z >= 0.5 * (p + q), x, y),
    "summer": lambda p, q, x, y: p * x + q * y,
}


def delayed_op(op: str, ins, steps: np.ndarray, p: float, q: float, out: np.ndarray) -> np.ndarray:
    """A simulator behaviour on delayed inputs, for a batch of rows, into out; see the compiled twin."""
    res = _OPS[op](p, q, *(_delayed(x, steps) for x in ins))
    fits = isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == res.shape
    if not (fits and out.flags.c_contiguous and out.flags.writeable) or any(
            np.may_share_memory(out, x) for x in (steps, *ins)):
        raise ValueError("out must be a writable C-contiguous float64 array of the result's shape and no input's")
    np.copyto(out, res)
    return out
