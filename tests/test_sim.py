"""Behavioral simulation: ideal agreement, delay transients, switch glitches."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msetsig import Signal, _kernels, errors, gen
from msetsig._kernels import _fallback
from msetsig.circuit import (
    COMPONENT_KINDS,
    GROUND,
    NETLIST_KINDS,
    Component,
    ComponentParams,
    Netlist,
    SimTrace,
    build_netlist,
    compare_to_math,
    delay_sweep,
    math_reference,
    output_latency,
    quiet_copy,
    simulate,
    switching_noise_rms,
)
from msetsig.circuit import analysis, sim
from msetsig.circuit.netlist import _KINDS

from conftest import rand_signal


def bind(net, rng, n=100, scale=1.0):
    return {name: rand_signal(rng, n=n, scale=scale) for name in net.inputs}


def switch_net(**params):
    sw = Component("analog_switch", "out", ("a", "b", "c"), ComponentParams(**params))
    return Netlist(("a", "b", "c"), (sw,), "out")


def per_edge_glitches(a, b, ctrl, amp, width, oversample):
    """Switch output with glitches added one edge, then one sample, at a time."""
    sel = ctrl >= 0.0
    out = np.where(sel, a, b)
    if amp == 0.0:
        return out
    n = out.size
    for i in np.nonzero(sel[1:] != sel[:-1])[0] + 1:
        start = 1.0 if sel[i] else -1.0
        for j in range(width):
            if i + j >= n:
                break
            out[i + j] += amp * start * (1.0 if (j // oversample) % 2 == 0 else -1.0)
    return out


@pytest.mark.parametrize("kind", COMPONENT_KINDS)
def test_every_component_kind_simulates(kind, rng):
    names = tuple(f"x{i}" for i in range(_KINDS[kind][0]))
    comp = Component(kind, "out", names, cutoff_hz=10.0 if kind == "lowpass" else None)
    inputs = {name: rand_signal(rng, n=16) for name in names}
    out = simulate(Netlist(names, (comp,), "out"), inputs).nodes["out"]
    assert out.dtype == np.float64 and out.shape == (16,)
    assert np.all(np.isfinite(out))


class TestIdealAgreement:
    def test_sign_of_zero_is_high(self):
        net = build_netlist("sign")
        trace = simulate(net, {"f": Signal(1.0, 0.0, [3.0, 0.0, -1.0])})
        assert trace.nodes["out"].tolist() == [1.0, 1.0, -1.0]

    @pytest.mark.parametrize("kind", NETLIST_KINDS)
    def test_matches_math_exactly(self, kind, rng):
        net = build_netlist(kind)
        for _ in range(20):
            inputs = bind(net, rng)
            if kind == "signify":
                sgn = np.where(inputs["s"].samples >= 0.0, 1.0, -1.0)
                inputs["s"] = Signal(inputs["s"].dt, inputs["s"].t0, sgn)
            trace = simulate(net, inputs)
            ref = math_reference(net, inputs)
            assert np.array_equal(trace.nodes["out"], ref.samples)

    def test_compare_to_math_reports_zero(self, rng):
        net = build_netlist("common_product")
        inputs = bind(net, rng)
        stats = compare_to_math(simulate(net, inputs), math_reference(net, inputs))
        assert stats["rms_error"] == 0.0
        assert stats["max_error"] == 0.0
        assert np.all(stats["error_signal"].samples == 0.0)

    def test_oversampling_changes_nothing_when_ideal(self, rng):
        net = build_netlist("common_product")
        inputs = bind(net, rng, n=64)
        a = simulate(net, inputs)
        b = simulate(net, inputs, oversample=4)
        for name in a.nodes:
            assert np.array_equal(a.nodes[name], b.nodes[name])


class TestDelays:
    def test_balanced_output_is_shifted_ideal(self, rng):
        net = build_netlist("common_product", ComponentParams(delay_samples=1))
        lat = output_latency(net)
        assert lat == 6
        inputs = bind(net, rng, n=200)
        out = simulate(net, inputs).nodes["out"]
        ideal = math_reference(net, inputs).samples
        assert np.array_equal(out[lat:], ideal[: len(ideal) - lat])

    def test_cold_start_is_quiet(self, rng):
        net = build_netlist("absolute", ComponentParams(delay_samples=1))
        lat = output_latency(net)
        out = simulate(net, {"f": rand_signal(rng, n=50)}).nodes["out"]
        assert np.all(out[:lat] == 0.0)

    def test_unbalanced_comparator_errs_only_at_crossings(self):
        f = gen("sine", 0.001, 1000, frequency=3.0)
        base = build_netlist("absolute")
        late = replace(base.components[0], params=ComponentParams(delay_samples=1))
        net = Netlist(base.inputs, (late, *base.components[1:]), base.output, base.kind)
        out = simulate(net, {"f": f}).nodes["out"]
        err = out - np.abs(f.samples)
        s = np.where(f.samples >= 0.0, 1.0, -1.0)
        stale = np.ones(len(f), dtype=bool)
        stale[1:] = s[1:] != s[:-1]
        assert np.any(err[stale] != 0.0)
        assert np.all(err[~stale] == 0.0)

    def test_delay_scales_with_oversample(self, rng):
        f = rand_signal(rng, n=40)
        net = Netlist(
            ("f",),
            (Component("delay", "out", ("f",), ComponentParams(delay_samples=3)),),
            "out",
        )
        a = simulate(net, {"f": f}).nodes["out"]
        b = simulate(net, {"f": f}, oversample=5).nodes["out"]
        assert np.array_equal(a, b)
        assert np.array_equal(a[3:], f.samples[:-3])
        assert np.all(a[:3] == 0.0)


class TestSwitchGlitches:
    def test_glitch_shape_at_transitions(self):
        n = 12
        a = Signal(1.0, 0.0, np.zeros(n))
        b = Signal(1.0, 0.0, np.zeros(n))
        ctrl = np.full(n, -1.0)
        ctrl[4:8] = 1.0
        c = Signal(1.0, 0.0, ctrl)
        net = switch_net(glitch_amplitude=0.5, glitch_width_samples=2)
        out = simulate(net, {"a": a, "b": b, "c": c}).nodes["out"]
        want = np.zeros(n)
        want[4] += 0.5
        want[5] -= 0.5
        want[8] -= 0.5
        want[9] += 0.5
        assert np.array_equal(out, want)

    def test_glitch_truncated_at_end(self):
        n = 5
        zeros = Signal(1.0, 0.0, np.zeros(n))
        c = Signal(1.0, 0.0, [-1.0, -1.0, -1.0, -1.0, 1.0])
        net = switch_net(glitch_amplitude=1.0, glitch_width_samples=4)
        out = simulate(net, {"a": zeros, "b": zeros, "c": c}).nodes["out"]
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_no_glitch_without_transition(self, rng):
        net = switch_net(glitch_amplitude=2.0)
        a = rand_signal(rng, n=30)
        b = rand_signal(rng, n=30)
        c = Signal(a.dt, a.t0, np.ones(30))
        out = simulate(net, {"a": a, "b": b, "c": c}).nodes["out"]
        assert np.array_equal(out, a.samples)

    def test_zero_amplitude_is_clean(self, rng):
        net = switch_net(glitch_amplitude=0.0)
        a, b = rand_signal(rng, n=30), rand_signal(rng, n=30)
        c = rand_signal(rng, n=30)
        out = simulate(net, {"a": a, "b": b, "c": c}).nodes["out"]
        want = np.where(c.samples >= 0.0, a.samples, b.samples)
        assert np.array_equal(out, want)

    def test_glitches_localized_to_width_windows(self, rng):
        f = gen("sine", 0.001, 500, frequency=4.0)
        g = gen("cosine", 0.001, 500, frequency=4.0)
        net = build_netlist(
            "common_product", ComponentParams(glitch_amplitude=0.3, glitch_width_samples=2)
        )
        inputs = {"f": f, "g": g}
        noisy = simulate(net, inputs)
        clean = simulate(quiet_copy(net), inputs)
        hit = np.nonzero(noisy.nodes["out"] != clean.nodes["out"])[0]
        assert hit.size > 0
        # every deviation lies in a glitch window opened at a control
        # transition some switch actually saw
        windows = set()
        for comp in net.components:
            if comp.kind != "analog_switch":
                continue
            ctrl = noisy.nodes[comp.inputs[2]]
            sel = ctrl >= 0.0
            for i in (np.nonzero(sel[1:] != sel[:-1])[0] + 1):
                windows.update((i, i + 1))
        assert set(hit.tolist()) <= windows

    @settings(max_examples=300, deadline=None)
    @given(
        ctrl=st.lists(st.booleans(), min_size=1, max_size=40),
        width=st.integers(0, 9),
        oversample=st.integers(1, 4),
        amp=st.sampled_from([0.0, 0.1, 0.3, 1.0, 3.0, 7.5]),
        scale=st.sampled_from([1e-17, 1.0, 1e17]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ctrl=[False] + [True] * 39, width=1000, oversample=3, amp=0.3, scale=1.0, seed=0)
    @example(ctrl=[False, True] * 20, width=1000, oversample=2, amp=7.5, scale=1e17, seed=1)
    def test_overlapping_glitches_match_per_edge_loop(self, ctrl, width, oversample, amp, scale, seed):
        # pulses wider than the spacing between edges overlap; at 1e+-17 the
        # order in which they add to a sample changes the rounded result
        rng = np.random.default_rng(seed)
        n = len(ctrl)
        a, b = (scale * rng.standard_normal(n) for _ in range(2))
        c = np.where(ctrl, 1.0, -1.0)
        net = switch_net(glitch_amplitude=amp, glitch_width_samples=width)
        bound = {name: Signal(1.0, 0.0, x) for name, x in zip("abc", (a, b, c))}
        out = simulate(net, bound, oversample=oversample).nodes["out"]
        want = per_edge_glitches(
            *(np.repeat(x, oversample) for x in (a, b, c)), amp, width * oversample, oversample
        )[::oversample]
        assert out.tobytes() == want.tobytes()

    def test_oversampled_glitch_decimates_to_grid_pattern(self):
        n = 16
        zeros = Signal(1.0, 0.0, np.zeros(n))
        ctrl = np.full(n, -1.0)
        ctrl[6:] = 1.0
        c = Signal(1.0, 0.0, ctrl)
        net = switch_net(glitch_amplitude=0.25, glitch_width_samples=2)
        a = simulate(net, {"a": zeros, "b": zeros, "c": c}).nodes["out"]
        b = simulate(net, {"a": zeros, "b": zeros, "c": c}, oversample=8).nodes["out"]
        assert np.array_equal(a, b)


class TestOtherComponents:
    def test_integrator_is_running_sum(self):
        net = Netlist(
            ("f",), (Component("integrator", "out", ("f",)),), "out"
        )
        f = Signal(0.5, 0.0, np.ones(4))
        out = simulate(net, {"f": f}).nodes["out"]
        assert out.tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_summer_signs(self, rng):
        net = Netlist(
            ("x", "y"),
            (Component("summer", "out", ("x", "y"), signs=(1, -1)),),
            "out",
        )
        x, y = rand_signal(rng, n=20), rand_signal(rng, n=20)
        out = simulate(net, {"x": x, "y": y}).nodes["out"]
        assert np.array_equal(out, x.samples - y.samples)

    def test_lowpass_recurrence(self):
        fc = 50.0
        dt = 0.001
        net = Netlist(
            ("f",),
            (Component("lowpass", "out", ("f",), cutoff_hz=fc),),
            "out",
        )
        x = np.array([1.0, 0.0, -2.0, 4.0])
        out = simulate(net, {"f": Signal(dt, 0.0, x)}).nodes["out"]
        alpha = 1.0 - math.exp(-2.0 * math.pi * fc * dt)
        y, want = 0.0, []
        for v in x:
            y += alpha * (v - y)
            want.append(y)
        assert np.allclose(out, want, atol=1e-15)

    def test_lowpass_tracks_dc(self):
        net = Netlist(
            ("f",), (Component("lowpass", "out", ("f",), cutoff_hz=100.0),), "out"
        )
        f = Signal(0.001, 0.0, np.ones(500))
        out = simulate(net, {"f": f}).nodes["out"]
        assert abs(out[-1] - 1.0) < 1e-9
        assert np.all(np.diff(out) >= -1e-15)


class TestSimulateValidation:
    def test_unbound_input(self, rng):
        net = build_netlist("union")
        with pytest.raises(errors.UnboundInput) as exc:
            simulate(net, {"f": rand_signal(rng, n=8)})
        assert "g" in str(exc.value)

    def test_unknown_binding(self, rng):
        net = build_netlist("sign")
        with pytest.raises(errors.BadParam):
            simulate(net, {"f": rand_signal(rng, n=8), "q": rand_signal(rng, n=8)})

    def test_metadata_mismatch(self, rng):
        net = build_netlist("union")
        with pytest.raises(errors.MetadataMismatch):
            simulate(net, {"f": rand_signal(rng, n=8), "g": rand_signal(rng, n=9)})
        with pytest.raises(errors.MetadataMismatch):
            simulate(
                net,
                {"f": rand_signal(rng, n=8), "g": rand_signal(rng, n=8, dt=0.5)},
            )

    def test_bad_oversample(self, rng):
        net = build_netlist("sign")
        with pytest.raises(errors.BadParam):
            simulate(net, {"f": rand_signal(rng, n=8)}, oversample=0)

    def test_trace_records_all_nodes_but_not_ground(self, rng):
        net = build_netlist("absolute")
        trace = simulate(net, {"f": rand_signal(rng, n=8)})
        assert set(trace.nodes) == {"f", "c1", "a1", "out"}

    def test_trace_signals_carry_grid(self, rng):
        f = rand_signal(rng, n=8, dt=0.125)
        trace = simulate(build_netlist("sign"), {"f": f})
        out = trace.output_signal()
        assert (out.dt, out.t0, len(out)) == (0.125, 0.0, 8)
        assert np.array_equal(trace.node_signal("f").samples, f.samples)


class TestTraceContract:
    def test_every_trace_holds_new_read_only_arrays(self):
        a = np.array([1.0, 2.0])
        trace = SimTrace(1.0, 0.0, {"out": a, "x": [3, 4]}, "out")
        a[0] = 99.0
        assert trace.nodes["out"].tolist() == [1.0, 2.0]
        assert trace.nodes["x"].dtype == np.float64
        for wave in trace.nodes.values():
            with pytest.raises(ValueError):
                wave[0] = 5.0
        with pytest.raises(TypeError):
            trace.nodes["x"] = 1

    @pytest.mark.parametrize("wave", [np.ones((2, 2)), np.array([]), 3.0, "ab", [1 + 2j, 0.0]])
    def test_a_node_that_is_not_one_real_row_is_bad_param(self, wave):
        with pytest.raises(errors.BadParam):
            SimTrace(1.0, 0.0, {"out": wave}, "out")


class TestWhereNodesAreChecked:
    """Only the switch, integrator, low-pass and summer can make a finite input
    non-finite; each checks the samples it records, where it makes them."""

    @staticmethod
    def assert_every_run_raises_at(node, net, inputs):
        for run in (lambda: simulate(net, inputs), lambda: delay_sweep(net, inputs, [0, 1]),
                    lambda: switching_noise_rms(net, inputs)):
            with pytest.raises(errors.BadParam, match=f"^waveform at node '{node}' must be finite$"):
                run()

    def test_an_inner_overflow_raises_although_the_output_is_finite(self):
        net = build_netlist("common_product", ComponentParams(glitch_amplitude=1e308, glitch_width_samples=1))
        inputs = {"f": Signal(1.0, 0.0, [1.7e308] * 3 + [-1.7e308]), "g": Signal(1.0, 0.0, [1.0, 1.0, -1.0, 1.7e308])}
        self.assert_every_run_raises_at("s2", net, inputs)

    def test_a_summer_overflow_raises_where_it_is_made(self):
        net = build_netlist("union")
        net = Netlist(net.inputs, (*net.components, Component("summer", "tail", (net.output, "f"))), "tail", net.kind)
        self.assert_every_run_raises_at("tail", net, {"f": Signal(1.0, 0.0, [1.7e308, 1.0]), "g": Signal(1.0, 0.0, [0.0, 0.0])})

    def test_an_overflow_on_a_dropped_sample_is_not_recorded(self):
        net = Netlist(("f",), (Component("integrator", "out", ("f",)),), "out")
        inputs = {"f": Signal(1.0, 0.0, [1.0, 1.0, 1.7e308])}
        assert simulate(net, inputs, 2).nodes["out"].tolist() == [0.5, 1.5, 8.5e307]
        assert switching_noise_rms(net, inputs, 2) == 0.0


class TestAnalysis:
    def test_math_reference_needs_kind(self, rng):
        net = Netlist(("f",), (Component("inverting_amp", "out", ("f",)),), "out")
        with pytest.raises(errors.BadParam):
            math_reference(net, {"f": rand_signal(rng, n=8)})

    def test_compare_shape_mismatch(self, rng):
        net = build_netlist("sign")
        trace = simulate(net, {"f": rand_signal(rng, n=8)})
        with pytest.raises(errors.ShapeMismatch):
            compare_to_math(trace, rand_signal(rng, n=9))

    def test_quiet_copy_only_touches_glitch_amp(self):
        net = build_netlist(
            "common_product",
            ComponentParams(delay_samples=2, glitch_amplitude=0.4, glitch_width_samples=3),
        )
        q = quiet_copy(net)
        assert q.kind == net.kind
        for orig, quiet in zip(net.components, q.components):
            assert quiet.params.glitch_amplitude == 0.0
            assert quiet.params.delay_samples == orig.params.delay_samples
            assert quiet.params.glitch_width_samples == orig.params.glitch_width_samples

    def test_noise_rms_zero_when_quiet(self, rng):
        net = build_netlist("common_product")
        assert switching_noise_rms(net, bind(net, rng)) == 0.0

    def test_noise_rms_positive_when_glitchy(self):
        net = build_netlist(
            "common_product", ComponentParams(glitch_amplitude=0.3)
        )
        inputs = {
            "f": gen("sine", 0.001, 1000, frequency=3.0),
            "g": gen("cosine", 0.001, 1000, frequency=3.0),
        }
        assert switching_noise_rms(net, inputs) > 0.0

    def test_sweep_spread_zero_is_exact(self, rng):
        net = build_netlist("common_product")
        rows = delay_sweep(net, bind(net, rng, n=64), [0], n_seeds=4)
        assert rows == [(0, 0.0)]

    def test_sweep_no_crossings_means_no_error(self):
        f = Signal(0.01, 0.0, np.full(200, 2.0) + np.linspace(0.0, 1.0, 200))
        net = build_netlist("sign")
        rows = delay_sweep(net, {"f": f}, [0, 2], n_seeds=6)
        assert rows == [(0, 0.0), (2, 0.0)]

    def test_sweep_row_shape_and_validation(self, rng):
        net = build_netlist("sign")
        inputs = {"f": rand_signal(rng, n=32)}
        rows = delay_sweep(net, inputs, [0, 1, 2], n_seeds=2)
        assert [s for s, _ in rows] == [0, 1, 2]
        with pytest.raises(errors.BadParam):
            delay_sweep(net, inputs, [-1], n_seeds=2)
        with pytest.raises(errors.BadParam):
            delay_sweep(net, inputs, [0], n_seeds=0)

    def test_sweep_reproducible(self, rng):
        net = build_netlist("union")
        inputs = bind(net, rng, n=64)
        a = delay_sweep(net, inputs, [0, 1, 3], n_seeds=3, seed=7)
        b = delay_sweep(net, inputs, [0, 1, 3], n_seeds=3, seed=7)
        assert a == b


def rule_rows(net, delays, amps):
    """Each component's rows for the given rows of delays and glitch amplitudes: one while its inputs
    have one and its delays, and a switch's glitch amplitudes, are equal across the rows."""
    delays, amps = np.broadcast_arrays(np.asarray(delays, dtype=float), np.asarray(amps, dtype=float))
    rows = dict.fromkeys((*net.inputs, GROUND), 1)
    for j, comp in enumerate(net.components):
        varying = (delays[:, j], amps[:, j]) if comp.kind == "analog_switch" else (delays[:, j],)
        one = all(rows[name] == 1 for name in comp.inputs) and all(len(set(v.tolist())) == 1 for v in varying)
        rows[comp.output] = 1 if one else len(delays)
    return [rows[comp.output] for comp in net.components]


def oracle_sweep(net, inputs, spreads, n_seeds, seed):
    """delay_sweep one row at a time: simulate the netlist rebuilt with each
    seed's delays, as whole numbers of any size."""
    ref = math_reference(net, inputs)
    base = np.array([c.params.delay_samples for c in net.components], dtype=float)
    rows = []
    for spread in spreads:
        total = 0.0
        for i in range(n_seeds):
            direction = np.random.default_rng((seed, i)).uniform(-1.0, 1.0, size=base.size)
            delays = [max(0, int(d)) for d in np.rint(base + direction * spread)]
            comps = tuple(replace(c, params=replace(c.params, delay_samples=d))
                          for c, d in zip(net.components, delays))
            trace = simulate(Netlist(net.inputs, comps, net.output, net.kind), inputs)
            total += compare_to_math(trace, ref)["rms_error"]
        rows.append((spread, total / n_seeds))
    return rows


def oracle_noise(net, inputs, oversample):
    """switching_noise_rms from two separate runs, the second with every glitch silenced."""
    noisy = simulate(net, inputs, oversample).nodes[net.output]
    diff = noisy - simulate(quiet_copy(net), inputs, oversample).nodes[net.output]
    return float(np.sqrt(np.mean(diff * diff)))


def bind_kind(net, rng, n, scale=1.0):
    inputs = bind(net, rng, n=n, scale=scale)
    if net.kind == "signify":
        inputs["s"] = Signal(inputs["s"].dt, inputs["s"].t0, np.where(inputs["s"].samples >= 0.0, 1.0, -1.0))
    return inputs


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(NETLIST_KINDS),
    delay=st.integers(0, 3),
    amp=st.sampled_from([0.0, 0.2, 1.5]),
    width=st.integers(0, 5),
    oversample=st.integers(1, 3),
    n_seeds=st.integers(1, 7),
    spreads=st.lists(st.one_of(st.integers(0, 5), st.just(10**20)), min_size=1, max_size=6),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def check_rows_against_the_per_row_oracle(kind, delay, amp, width, oversample, n_seeds, spreads, n, seed):
    net = build_netlist(kind, ComponentParams(
        delay_samples=delay, glitch_amplitude=amp, glitch_width_samples=width))
    rng = np.random.default_rng(seed)
    inputs = bind_kind(net, rng, n, scale=10.0 ** rng.uniform(-3, 3))
    got = delay_sweep(net, inputs, spreads, n_seeds=n_seeds, seed=seed)
    assert repr(got) == repr(oracle_sweep(net, inputs, spreads, n_seeds, seed))
    noise = switching_noise_rms(net, inputs, oversample)
    assert repr(noise) == repr(oracle_noise(net, inputs, oversample))


class TestBatchedRows:
    def test_rows_are_bitwise_the_per_row_oracle(self):
        check_rows_against_the_per_row_oracle()

    def test_fallback_rows_are_bitwise_the_per_row_oracle(self, monkeypatch):
        monkeypatch.setattr(_kernels, "delayed_op", _fallback.delayed_op)
        check_rows_against_the_per_row_oracle()

    def test_split_batches_give_the_same_bytes(self, rng, monkeypatch):
        net = build_netlist("common_product", ComponentParams(delay_samples=1, glitch_amplitude=0.2))
        inputs = bind(net, rng, n=50)
        rows = delay_sweep(net, inputs, range(6), n_seeds=7, seed=3)
        noise = switching_noise_rms(net, inputs, 2)
        runs = []

        def counted(*args, **kwargs):
            for count, nodes in sim._run(*args, **kwargs):
                runs.append(count)
                yield count, nodes

        monkeypatch.setattr(analysis, "_run", counted)
        monkeypatch.setattr(sim, "_BATCH_SAMPLES", 120)
        assert repr(delay_sweep(net, inputs, range(6), n_seeds=7, seed=3)) == repr(rows)
        assert runs == [2, 2, 2, 1] * 6
        assert repr(switching_noise_rms(net, inputs, 2)) == repr(noise)
        assert runs[24:] == [1, 1]

    def test_a_sweep_makes_one_buffer_per_live_node(self, rng, monkeypatch):
        net = build_netlist("common_product", ComponentParams(delay_samples=1, glitch_amplitude=0.2))
        last = {name: j for j, comp in enumerate(net.components) for name in comp.inputs}
        live, peak = set(), 0  # nodes made and still to be read, or the output
        for j, comp in enumerate(net.components):
            live.add(comp.output)
            peak = max(peak, len(live))
            live -= {name for name in comp.inputs if last[name] == j}
        buffers, calls, switched, real = set(), [], [], _kernels.delayed_op

        def spy(op, ins, steps, p, q, out):
            assert len(steps) == out.shape[0]
            buffers.add(id(out.base))
            calls.append((op, out))
            return real(op, ins, steps, p, q, out)

        def glitches(comp, rows, *args):
            switched.append(rows)
            return sim._glitches(comp, rows, *args)

        monkeypatch.setattr(_kernels, "delayed_op", spy)
        monkeypatch.setitem(sim._BEHAVIOUR, "analog_switch", ("analog_switch", glitches))
        inputs, k = bind(net, rng, n=50), len(net.components)
        delay_sweep(net, inputs, range(6), n_seeds=7)
        base = np.array([c.params.delay_samples for c in net.components], dtype=float)
        directions = np.array([np.random.default_rng((0, i)).uniform(-1.0, 1.0, size=k) for i in range(7)])
        want = [rows for spread in range(6)
                for rows in rule_rows(net, np.maximum(0, np.rint(base + directions * spread)), [[0.2] * k])]
        assert [len(out) for _, out in calls] == want and set(want) == {1, 7}
        assert peak < len(net.components)
        assert 1 < len(buffers) <= peak
        self.assert_switches_glitch_the_rows_they_made(calls, switched)
        for seen in (buffers, calls, switched):
            seen.clear()
        switching_noise_rms(net, inputs)  # a glitchy and a quiet row
        want = rule_rows(net, [base], [[0.2] * k, [0.0] * k])
        assert [len(out) for _, out in calls] == want and set(want) == {1, 2}
        assert {len(out) for op, out in calls if op == "analog_switch"} == {2}
        self.assert_switches_glitch_the_rows_they_made(calls, switched)
        assert len(buffers) <= peak

    @staticmethod
    def assert_switches_glitch_the_rows_they_made(calls, switched):
        """Each switch's glitches go into the very rows its delayed_op filled, which nothing widens."""
        made = [out for op, out in calls if op == "analog_switch"]
        assert len(made) == len(switched) > 0
        assert all(a is b for a, b in zip(made, switched))

    @pytest.mark.parametrize("kind", ["intersection", "union", "absolute", "signify", "common_product"])
    def test_overflowing_error_raises_bad_param(self, kind):
        big = 1.7e308 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        net = build_netlist(kind, ComponentParams(delay_samples=1))
        inputs = {name: Signal(1.0, 0.0, x) for name, x in zip(net.inputs, (big, -np.roll(big, 1)))}
        if kind == "signify":
            inputs["s"] = Signal(1.0, 0.0, -np.sign(np.roll(big, 1)))
        with pytest.raises(errors.BadParam, match="must be finite"):
            delay_sweep(net, inputs, [0, 1], n_seeds=2)
        with pytest.raises(errors.BadParam, match="must be finite"):
            compare_to_math(simulate(net, inputs), math_reference(net, inputs))

    def test_overflowing_noise_raises_bad_param(self, rng):
        net = build_netlist("common_product", ComponentParams(glitch_amplitude=1e200))
        with pytest.raises(errors.BadParam, match="must be finite"):
            switching_noise_rms(net, bind(net, rng, n=200))

    @pytest.mark.parametrize("oversample", [2**57, 10**19])
    def test_unallocatable_oversample_is_bad_param(self, oversample):
        f = Signal(1.0, 0.0, [1.0, -2.0, 0.5, 3.0])
        with pytest.raises(errors.BadParam, match="too many samples"):
            simulate(build_netlist("sign"), {"f": f}, oversample)
