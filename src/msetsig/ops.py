"""Elementwise multiset operations on signals.

Sign convention throughout: the sign of 0 is +1. The comparator model in
msetsig.circuit relies on the identical convention so the mathematical and
simulated paths agree at zero crossings.
"""

from __future__ import annotations

import numpy as np

from .signal import Signal, SignSeries, check_same_shape


def _signs(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def complement(f: Signal) -> Signal:
    """Multiset complement: negate every sample."""
    return f.with_samples(-f.samples)


def sign_fn(f: Signal) -> SignSeries:
    """Sign series of f: +1 where the sample is >= 0, -1 otherwise."""
    return SignSeries(f.dt, f.t0, _signs(f.samples))


def conjoint_sign(f: Signal, g: Signal) -> SignSeries:
    """Elementwise product of the two sign series."""
    check_same_shape(f, g)
    return SignSeries(f.dt, f.t0, _signs(f.samples) * _signs(g.samples))


def intersection(f: Signal, g: Signal) -> Signal:
    """Elementwise minimum of two signals."""
    check_same_shape(f, g)
    return f.with_samples(np.minimum(f.samples, g.samples))


def union(f: Signal, g: Signal) -> Signal:
    """Elementwise maximum of two signals."""
    check_same_shape(f, g)
    return f.with_samples(np.maximum(f.samples, g.samples))


def absolute(f: Signal) -> Signal:
    """Elementwise absolute value: sign(f) * f."""
    return f.with_samples(np.abs(f.samples))


def signify(a: Signal, s: SignSeries) -> Signal:
    """Multiply a signal by a sign series, restoring signedness.

    Inverse of ``absolute`` with respect to the same sign series:
    signify(absolute(f), sign_fn(f)) == f exactly.
    """
    check_same_shape(a, s)
    return a.with_samples(a.samples * s.samples)


def common_product(f: Signal, g: Signal) -> Signal:
    """Elementwise common product: conjoint sign times min(|f|, |g|).

    The result is the signed region shared by the two signals relative to the
    time axis. Wherever exactly one argument is 0 the output is 0 regardless
    of the conjoint sign. Commutative; its magnitude equals the intersection
    of the absolute values.
    """
    check_same_shape(f, g)
    sfg = _signs(f.samples) * _signs(g.samples)
    return f.with_samples(sfg * np.minimum(np.abs(f.samples), np.abs(g.samples)))


def _signify_signals(a: Signal, s: Signal) -> Signal:
    return signify(a, SignSeries(s.dt, s.t0, s.samples))


# Every named operation: name -> (arity, function of Signal operands). The
# sign-valued operations return a SignSeries.
OPS = {
    "complement": (1, complement),
    "sign": (1, sign_fn),
    "conjoint_sign": (2, conjoint_sign),
    "intersection": (2, intersection),
    "union": (2, union),
    "absolute": (1, absolute),
    "signify": (2, _signify_signals),
    "common_product": (2, common_product),
}
