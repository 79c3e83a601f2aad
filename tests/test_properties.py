"""Properties of the DSL round trip and depth bound, the signal grid, and the
finiteness and peak contracts of the correlation layer, finite SVG
coordinates, the whole-number and float parameters, the sign series as a
signal, the input rules of the Signal, SimTrace, CorrelationResult, DSL and
netlist constructors, and the netlist text round trip."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msetsig import (
    GEN_KINDS,
    CorrelationResult,
    Environment,
    Signal,
    SignSeries,
    classic_functional,
    common_functional,
    errors,
    evaluate,
    gen,
    jaccard_index,
    parse,
    peak_metrics,
    pretty_print,
    shift,
    sign_fn,
    svg,
    write_csv,
)
from msetsig.circuit import (
    COMPONENT_KINDS,
    Component,
    ComponentParams,
    Netlist,
    SimTrace,
    build_netlist,
    delay_sweep,
    format_netlist,
    parse_netlist,
    simulate,
)
from msetsig.circuit.netlist import _KINDS
from msetsig.dsl import MAX_DEPTH, Binary, Call, Const, Unary, Var
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


def _raised(make):
    """The MsetError class that make() raises, or None if it returns."""
    try:
        make()
    except errors.MsetError as exc:
        return type(exc)
    return None


@given(dt=st.floats(), t0=st.floats())
@example(dt=math.nan, t0=math.inf)
def test_results_follow_the_signal_rule_for_dt_and_t0(dt, t0):
    # NonPositiveDt for a dt that is not positive and finite, else BadParam for a t0 that is not finite
    trace = lambda: SimTrace(dt, t0, {"out": np.zeros(2)}, "out")
    result = lambda: CorrelationResult(dt, [0, 1], [1.0, 2.0])
    for make, signal in ((trace, lambda: Signal(dt, t0, [0.0])), (result, lambda: Signal(dt, 0.0, [0.0]))):
        assert _raised(make) is _raised(signal)
        if _raised(make) is None:
            assert make().dt == dt


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.complex_numbers(),
                    st.text(max_size=3), st.builds(np.complex128, st.complex_numbers()))
anything = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(st.lists(st.floats(), max_size=2), max_size=3),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.complex_numbers(), max_size=3).map(np.array),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=2).map(np.array),
    st.dictionaries(st.sampled_from(["out", "x"]), st.lists(st.floats(), max_size=3), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(dt=anything, t0=anything, samples=anything, lags=anything, nodes=anything)
@example(dt=1.0, t0=0.0, samples=[1.0, 2.0], lags=[0.7, 1.2], nodes={"out": [1.0, 2.0]})
@example(dt=1.0, t0=0.0, samples=[None, np.complex128(1j)], lags=[None, np.complex128(0j)], nodes=None)
@example(dt=1.0, t0=0.0, samples=[1.0, 2.0], lags=[0, 1], nodes={"out": [1.0], "x": [1.0, 2.0]})
@example(dt=1.0, t0=1 + 2j, samples=["out"], lags=[0], nodes={"x": [1.0]})
def test_constructors_succeed_or_raise_an_mset_error(dt, t0, samples, lags, nodes):
    # t0 also stands in for a mode, a DSL name or constant, an operator and a generator kind
    f = Var("f")
    for make in (lambda: Signal(dt, t0, samples), lambda: CorrelationResult(dt, lags, samples),
                 lambda: CorrelationResult(1.0, lags, samples, t0),
                 lambda: SimTrace(dt, t0, nodes, "out"), lambda: SimTrace(dt, t0, {"out": samples}, "out"),
                 lambda: SimTrace(1.0, 0.0, {"out": [1.0]}, samples),
                 lambda: Var(t0), lambda: Const(t0), lambda: Unary(t0, f), lambda: Binary(t0, f, f),
                 lambda: Call(t0, f), lambda: Environment({"f": samples}), lambda: Environment(samples),
                 lambda: gen(t0, 1.0, 2), lambda: gen("sine", 1.0, 2, amplitude=t0, phase=samples)):
        try:
            made = make()
        except errors.MsetError:
            continue
        for wave in (getattr(made, "samples", None), getattr(made, "values", None), getattr(made, "lags", None)):
            if wave is not None:
                assert wave.ndim == 1 and wave.size >= 1 and not wave.flags.writeable


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
@given(xs=st.lists(finite, max_size=6), ys=st.lists(finite, max_size=6))
@example(xs=[0.0, 1.0], ys=[1e308, -1e308])
@example(xs=[-1e308, 1e308], ys=[0.0, 1.0])
@example(xs=[0.0, 1.0], ys=[1e300, 1e300])
@example(xs=[], ys=[1.0])
@example(xs=[1.0], ys=[])
def test_svg_coordinates_are_finite_or_the_plot_raises(xs, ys):
    # no xs plots no series, and no ys one empty series
    n = min(len(xs), len(ys))
    try:
        text = svg.line_plot([("s", np.array(xs[:n]), np.array(ys[:n]))] if xs else [])
    except errors.BadParam:
        assert n == 0 or max(abs(v) for v in xs[:n] + ys[:n]) > 1e307  # only near the float range's end
        return
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("fn", [common_functional, classic_functional, jaccard_index])
def test_functionals_raise_on_overflow(fn):
    # the sums overflow to inf, and to inf - inf = nan; neither may warn first
    for samples in ([1e308, 1e308], [1e308, 1e308, -1e308, -1e308]):
        with pytest.raises(errors.BadParam):
            fn(Signal(1.0, 0.0, samples), Signal(1.0, 0.0, np.abs(samples)))


# Every whole-number parameter, as a call that gives the result's bytes, and
# which valid values the test may run it with: a huge n_seeds or oversample
# would run too long, and an n below 10**19 might allocate, so such draws are
# negated. The negative, fractional and non-numeric draws reach every call.
_SWEEP_IN = {"f": Signal(0.5, 0.0, [1.0, -2.0, 0.5, 3.0, -1.0, 0.25])}


def _sim_bytes(params, oversample=1):
    net = build_netlist("absolute", params)
    trace = simulate(net, {"f": Signal(0.5, 0.0, [1.0, -2.0, 0.5, 3.0, -1.0])}, oversample)
    return format_netlist(net).encode() + b"".join(w.tobytes() for w in trace.nodes.values())


def _sweep_bytes(spreads, **kw):
    net = build_netlist("absolute", ComponentParams(delay_samples=1))
    return repr(delay_sweep(net, _SWEEP_IN, spreads, **kw)).encode()


WHOLE_PARAMS = {
    "gen.n": (lambda v: gen("sine", 0.1, v).samples.tobytes(), lambda v: v <= 64 or v >= 10**19),
    "gen.seed": (lambda v: gen("white_noise", 0.1, 8, seed=v).samples.tobytes(), None),
    "shift.k": (lambda v: shift(Signal(1.0, 0.0, [1.0, 2.0, 3.0]), v).samples.tobytes(), None),
    "delay_samples": (lambda v: _sim_bytes(ComponentParams(delay_samples=v)), None),
    "glitch_width_samples": (
        lambda v: _sim_bytes(ComponentParams(glitch_amplitude=0.5, glitch_width_samples=v)), None),
    "simulate.oversample": (lambda v: _sim_bytes(ComponentParams(), v), lambda v: v <= 8),
    "delay_sweep.n_seeds": (lambda v: _sweep_bytes([1], n_seeds=v), lambda v: v <= 4),
    "delay_sweep.spread": (lambda v: _sweep_bytes([0, v], n_seeds=2), None),
    "delay_sweep.seed": (lambda v: _sweep_bytes([2], n_seeds=2, seed=v), None),
}

whole_draws = st.one_of(
    st.integers(-(10**40), -1),
    st.integers(0, 8),
    st.integers(10**19, 10**40),
    st.integers(0, 8).map(float),
    st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, "2", "x", None]),
)


@pytest.mark.parametrize("name", list(WHOLE_PARAMS))
@settings(max_examples=60, deadline=None)
@given(value=whole_draws)
def test_whole_number_parameters_succeed_or_raise_bad_param(name, value):
    call, runs = WHOLE_PARAMS[name]
    if runs is not None and isinstance(value, (int, float)) and not runs(value):
        value = -value
    try:
        got = call(value)
    except errors.BadParam:
        return
    if isinstance(value, float):
        assert got == call(int(value))


gen_floats = st.one_of(st.floats(-10.0, 10.0),
                       st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-320]),
                       st.sampled_from(["1", 1j, np.complex128(1.0), None, [1.0], np.ones(2)]))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(GEN_KINDS), n=st.integers(1, 12),
       dt=st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, -0.5, math.inf, math.nan, 1e308, 1e-320])),
       floats=st.fixed_dictionaries({}, optional={name: gen_floats for name in
                                                  ("amplitude", "frequency", "phase", "t0", "center", "width")}))
def test_gen_floats_give_finite_samples_or_raise(kind, n, dt, floats):
    good_dt = dt > 0 and math.isfinite(dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = gen(kind, dt, n, seed=3, **floats)
        except errors.NonPositiveDt:
            assert not good_dt
            return
        except errors.BadParam:
            assert good_dt
            return
    assert good_dt and np.all(np.isfinite(s.samples))


def test_sign_series_is_a_signal():
    s = sign_fn(Signal(0.5, 1.0, [3.0, -1.0, 0.0]))
    assert isinstance(s, Signal)
    assert s.values is s.samples
    assert s.with_samples([2.0]).samples.tolist() == [2.0]


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=8),
       dt=st.floats(1e-300, 1e300), t0=finite)
def test_sign_series_csv_bytes(tmp_path_factory, xs, dt, t0):
    path = tmp_path_factory.mktemp("sign") / "s.csv"
    write_csv(path, sign_fn(Signal(dt, t0, xs)))
    want = [f"# dt={dt!r} t0={t0!r}"] + ["1.0" if x >= 0 else "-1.0" for x in xs]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_integral_float_delay_formats_as_an_integer():
    net = build_netlist("absolute", ComponentParams(delay_samples=1.0, glitch_width_samples=3.0))
    text = format_netlist(net)
    assert text == format_netlist(build_netlist("absolute", ComponentParams(1, 0.0, 3)))
    assert format_netlist(parse_netlist(text)) == text


node_names = st.sampled_from(["f", "g", "out", "gnd", "x1", "1a", ""])
netlist_tokens = st.sampled_from(["input", "output", "f", "g", "out", "gnd", "comparator", "lowpass", "summer",
                                  "delay=1", "delay=1.5", "fc=2", "fc=0", "signs=+-", "signs=+", "high=5",
                                  "low=0", "glitch_amp=x", "q=1", "=", "#", " ", "\n", "\n"])


@settings(max_examples=300, deadline=None)
@given(params=st.fixed_dictionaries({}, optional={name: st.one_of(st.integers(0, 3), anything) for name in (
           "delay_samples", "glitch_amplitude", "glitch_width_samples", "logic_high", "logic_low")}),
       kind=st.one_of(st.sampled_from(COMPONENT_KINDS), anything), output=st.one_of(node_names, anything),
       inputs=st.one_of(st.lists(node_names, max_size=3), anything), other=anything,
       text=st.one_of(st.lists(netlist_tokens, max_size=30).map(" ".join), anything))
@example(params={"logic_high": 2j}, kind="lowpass", output="o", inputs=["f"], other="5", text=5)
@example(params={}, kind="summer", output="o", inputs="fg", other=None, text="input f\nsummer o f f signs=+\n")
@example(params={}, kind="delay", output="f", inputs=["f"], other=["x"], text="input f\noutput f\n")
@example(params={}, kind="summer", output=["o"], inputs=5, other=5, text="input f\ninverting_amp o f delay=3 delay=1\n")
def test_netlist_constructors_succeed_or_raise_an_mset_error(params, kind, output, inputs, other, text):
    # other stands in for a cutoff, the signs, the params, a component and a netlist kind
    comp = Component("inverting_amp", "o", ("f",))
    for make in (lambda: ComponentParams(**params),
                 lambda: Component(kind, output, inputs, other),
                 lambda: Component(kind, output, inputs, cutoff_hz=other),
                 lambda: Component("lowpass", "o", ("f",), cutoff_hz=other),
                 lambda: Component("summer", "o", ("f", "g"), signs=other),
                 lambda: Netlist(inputs, (comp,), output, other), lambda: Netlist(("f",), other, "o"),
                 lambda: Netlist(("f",), (comp, other), "o"), lambda: parse_netlist(text)):
        try:
            make()
        except errors.MsetError:
            pass


@st.composite
def netlists(draw):
    known, comps = ["x", "y", "gnd"], []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(COMPONENT_KINDS))
        high = draw(st.one_of(st.integers(-5, 5), st.floats(-1e6 + 1, 1e6)))
        params = ComponentParams(draw(st.integers(0, 4)), draw(st.floats(0.0, 10.0)), draw(st.integers(0, 4)),
                                 high, draw(st.floats(-1e6, high, exclude_max=True)))
        extra = {"lowpass": {"cutoff_hz": draw(st.floats(1e-6, 1e9))},
                 "summer": {"signs": draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))}}
        inputs = tuple(draw(st.sampled_from(known)) for _ in range(_KINDS[kind][0]))
        comps.append(Component(kind, f"n{i}", inputs, params, **extra.get(kind, {})))
        known.append(f"n{i}")
    return Netlist(("x", "y"), comps, draw(st.sampled_from(known)))


@settings(max_examples=200, deadline=None)
@given(netlists())
def test_parse_of_format_gives_the_netlist(net):
    assert parse_netlist(format_netlist(net)) == net
