"""Real-valued multiset operations on sampled signals.

Signals are treated as real-valued multisets indexed by time: complement is
negation, intersection and union are the elementwise minimum and maximum,
and the common product keeps the signed magnitude shared by both operands.
On top of that sit the common-product functional and cross-correlation, an
expression language for composing the operators, and a behavioral simulator
for comparator/switch circuit realizations of the same operations.
"""

from . import circuit, errors
from ._kernels import BACKEND as kernel_backend
"""Which kernel implementation this process imported: "compiled" or "python"."""
from .correlation import (
    CORR_KINDS,
    CORR_MODES,
    CorrelationResult,
    PeakMetrics,
    classic_functional,
    common_functional,
    cross_correlate,
    jaccard_index,
    peak_metrics,
)
from .dsl import Environment, evaluate, parse, pretty_print
from .io import read_correlation_csv, read_csv, write_csv
from .ops import (
    absolute,
    common_product,
    complement,
    conjoint_sign,
    intersection,
    sign_fn,
    signify,
    union,
)
from .signal import GEN_KINDS, Signal, SignSeries, gen, shift

__version__ = "0.1.0"

__all__ = [
    "CORR_KINDS",
    "CORR_MODES",
    "GEN_KINDS",
    "CorrelationResult",
    "Environment",
    "PeakMetrics",
    "Signal",
    "SignSeries",
    "absolute",
    "circuit",
    "classic_functional",
    "common_functional",
    "common_product",
    "complement",
    "conjoint_sign",
    "cross_correlate",
    "errors",
    "evaluate",
    "gen",
    "intersection",
    "jaccard_index",
    "kernel_backend",
    "parse",
    "peak_metrics",
    "pretty_print",
    "read_correlation_csv",
    "read_csv",
    "shift",
    "sign_fn",
    "signify",
    "union",
    "write_csv",
    "__version__",
]
