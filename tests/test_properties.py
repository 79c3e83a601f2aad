"""Properties of the DSL round trip and depth bound, the signal grid, and the
finiteness and peak contracts of the correlation layer, and finite SVG
coordinates."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msetsig import (
    CorrelationResult,
    Environment,
    Signal,
    SignSeries,
    classic_functional,
    common_functional,
    errors,
    evaluate,
    jaccard_index,
    parse,
    peak_metrics,
    pretty_print,
    svg,
)
from msetsig.dsl import MAX_DEPTH
from msetsig.signal import check_same_shape

TOKENS = ["f", "g", "sin", "cos", "abs", "sign", "tan", "x_1", "1", "2.5", ".5", "3e-2",
          "(", ")", "-", "+", "*", "<>", "/\\", "\\/", "~", " "]
texts = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(texts)
@example("+".join(["f"] * 300))
@example("+".join(["f"] * MAX_DEPTH))
@example("-" * (MAX_DEPTH - 1) + "f")
@example("f" + "~" * (MAX_DEPTH - 1))
def test_round_trip_for_every_accepted_text(text):
    try:
        ast = parse(text)
    except errors.MsetError:
        return
    assert parse(pretty_print(ast)) == ast


HIGHEST = {
    "chain": "+".join(["f"] * MAX_DEPTH),
    "complements": "f" + "~" * (MAX_DEPTH - 1),
    "minus": "-" * (MAX_DEPTH - 1) + "f",
    "calls": "sin(" * (MAX_DEPTH - 1) + "f" + ")" * (MAX_DEPTH - 1),
}


@pytest.mark.parametrize("name", list(HIGHEST))
def test_highest_tree_works_without_deep_interpreter_stack(name):
    env = Environment({"f": Signal(1.0, 0.0, [0.5, -2.0])})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        ast = parse(HIGHEST[name])
        out = evaluate(ast, env)
        printed = pretty_print(ast)
        again = pretty_print(parse(printed))
    finally:
        sys.setrecursionlimit(limit)
    assert again == printed
    assert np.all(np.isfinite(out.samples))


TOO_HIGH = {
    "chain": "+".join(["f"] * (MAX_DEPTH + 1)),
    "complements": "f" + "~" * MAX_DEPTH,
    "minus": "-" * MAX_DEPTH + "f",
    "chain_5000": "+".join(["f"] * 5000),
    "complements_5000": "f" + "~" * 5000,
}


@pytest.mark.parametrize("name", list(TOO_HIGH))
def test_higher_tree_is_rejected(name):
    with pytest.raises(errors.DepthExceeded):
        parse(TOO_HIGH[name])


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_grid_accepts_exactly_finite_t0(t0):
    for make in (lambda: Signal(1.0, t0, [1.0, -1.0]), lambda: SignSeries(1.0, t0, [1.0, -1.0])):
        if math.isfinite(t0):
            s = make()
            check_same_shape(s, s)
        else:
            with pytest.raises(errors.BadParam):
                make()


def test_peak_metrics_needs_a_positive_peak():
    for values in (-np.array([4.0, 1.0, 2.0, 3.0]), [0.0, -1.0, 0.0]):
        with pytest.raises(errors.FlatResult):
            peak_metrics(CorrelationResult(1.0, np.arange(len(values)), values))


def test_peak_metrics_secondary_ratio_is_finite():
    values = np.array([-1.0, 0.0, 5e-324, 0.0, -1.0])
    with pytest.raises(errors.BadParam):
        peak_metrics(CorrelationResult(1.0, np.arange(len(values)), values))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=6), ys=st.lists(finite, min_size=1, max_size=6))
@example(xs=[0.0, 1.0], ys=[1e308, -1e308])
@example(xs=[-1e308, 1e308], ys=[0.0, 1.0])
@example(xs=[0.0, 1.0], ys=[1e300, 1e300])
def test_svg_coordinates_are_finite_or_the_plot_raises(xs, ys):
    n = min(len(xs), len(ys))
    try:
        text = svg.line_plot([("s", np.array(xs[:n]), np.array(ys[:n]))])
    except errors.BadParam:
        assert max(abs(v) for v in xs[:n] + ys[:n]) > 1e307  # only near the float range's end
        return
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("fn", [common_functional, classic_functional, jaccard_index])
def test_functionals_raise_on_overflow(fn):
    f = Signal(1.0, 0.0, [1e308, 1e308])
    with np.errstate(over="ignore"), pytest.raises(errors.BadParam):
        fn(f, f)
