"""Netlist validation, builders, and the text serialization round trip."""

import numpy as np
import pytest

from msetsig import errors
from msetsig.circuit import (
    NETLIST_KINDS,
    Component,
    ComponentParams,
    Netlist,
    build_netlist,
    format_netlist,
    output_latency,
    parse_netlist,
)


def comp(kind, out, *ins, **kw):
    return Component(kind, out, tuple(ins), **kw)


class TestComponentParams:
    def test_defaults(self):
        p = ComponentParams()
        assert p.delay_samples == 0
        assert p.glitch_amplitude == 0.0
        assert p.glitch_width_samples == 2
        assert (p.logic_high, p.logic_low) == (1.0, -1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"delay_samples": -1},
            {"glitch_amplitude": -0.5},
            {"glitch_width_samples": -2},
            {"logic_high": -1.0, "logic_low": 1.0},
            {"logic_high": 0.0, "logic_low": 0.0},
            {"glitch_amplitude": float("nan")},
            {"glitch_amplitude": float("inf")},
            {"logic_high": float("inf")},
            {"logic_low": float("nan")},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(errors.BadParam):
            ComponentParams(**kw)


class TestComponent:
    def test_unknown_kind(self):
        with pytest.raises(errors.NetlistError):
            comp("resistor", "out", "a")

    def test_arity(self):
        with pytest.raises(errors.NetlistError):
            comp("comparator", "out", "a")
        with pytest.raises(errors.NetlistError):
            comp("inverting_amp", "out", "a", "b")

    def test_ground_not_drivable(self):
        with pytest.raises(errors.NetlistError):
            comp("inverting_amp", "gnd", "a")

    def test_ground_readable(self):
        c = comp("comparator", "out", "f", "gnd")
        assert c.inputs == ("f", "gnd")

    def test_cutoff_only_on_lowpass(self):
        comp("lowpass", "y", "x", cutoff_hz=50.0)
        with pytest.raises(errors.NetlistError):
            comp("lowpass", "y", "x")
        with pytest.raises(errors.NetlistError):
            comp("lowpass", "y", "x", cutoff_hz=0.0)
        with pytest.raises(errors.NetlistError):
            comp("inverting_amp", "y", "x", cutoff_hz=50.0)

    def test_signs_only_on_summer(self):
        s = comp("summer", "y", "a", "b")
        assert s.signs == (1, 1)
        assert comp("summer", "y", "a", "b", signs=(1, -1)).signs == (1, -1)
        with pytest.raises(errors.NetlistError):
            comp("summer", "y", "a", "b", signs=(2, 1))
        with pytest.raises(errors.NetlistError):
            comp("comparator", "y", "a", "b", signs=(1, 1))


class TestNetlist:
    def test_requires_inputs(self):
        with pytest.raises(errors.NetlistError):
            Netlist((), (comp("comparator", "out", "gnd", "gnd"),), "out")

    def test_duplicate_input(self):
        with pytest.raises(errors.NetlistError):
            Netlist(("f", "f"), (comp("inverting_amp", "out", "f"),), "out")

    def test_gnd_reserved_as_input(self):
        with pytest.raises(errors.NetlistError):
            Netlist(("gnd",), (comp("inverting_amp", "out", "gnd"),), "out")

    def test_undefined_node(self):
        with pytest.raises(errors.NetlistError) as exc:
            Netlist(("f",), (comp("inverting_amp", "out", "q"),), "out")
        assert "q" in str(exc.value)

    def test_feed_forward_ordering_enforced(self):
        a = comp("inverting_amp", "a", "b")
        b = comp("inverting_amp", "b", "f")
        Netlist(("f",), (b, a), "a")
        with pytest.raises(errors.NetlistError):
            Netlist(("f",), (a, b), "a")

    def test_double_drive(self):
        with pytest.raises(errors.NetlistError):
            Netlist(
                ("f",),
                (comp("inverting_amp", "x", "f"), comp("inverting_amp", "x", "f")),
                "x",
            )

    def test_output_must_be_driven(self):
        with pytest.raises(errors.NetlistError):
            Netlist(("f",), (comp("inverting_amp", "x", "f"),), "y")

    def test_input_observable_as_output(self):
        net = Netlist(("f",), (comp("inverting_amp", "x", "f"),), "f")
        assert net.output == "f"


class TestBuilders:
    def test_unknown_kind(self):
        with pytest.raises(errors.BadParam):
            build_netlist("xor")

    @pytest.mark.parametrize("kind", NETLIST_KINDS)
    def test_all_kinds_validate(self, kind):
        net = build_netlist(kind)
        assert net.kind == kind
        assert net.output == "out"

    def test_census_common_product(self):
        census = build_netlist("common_product").census()
        assert census == {
            "comparator": 5,
            "analog_switch": 4,
            "inverting_amp": 3,
            "equivalence_gate": 1,
        }

    def test_census_absolute(self):
        assert build_netlist("absolute").census() == {
            "comparator": 1,
            "inverting_amp": 1,
            "analog_switch": 1,
        }

    def test_census_ignores_balancing_pads(self):
        net = build_netlist("common_product", ComponentParams(delay_samples=2))
        assert any(c.kind == "delay" for c in net.components)
        assert net.census() == build_netlist("common_product").census()

    def test_zero_delay_needs_no_pads(self):
        for kind in NETLIST_KINDS:
            net = build_netlist(kind)
            assert all(c.kind != "delay" for c in net.components)

    @pytest.mark.parametrize("d", [1, 3])
    def test_common_product_latency(self, d):
        net = build_netlist("common_product", ComponentParams(delay_samples=d))
        assert output_latency(net) == 6 * d

    def test_balancing_equalizes_arrivals(self):
        net = build_netlist("common_product", ComponentParams(delay_samples=3))
        arrival = {name: 0 for name in net.inputs}
        arrival["gnd"] = 0
        for c in net.components:
            live = {arrival[n] for n in c.inputs if n != "gnd"}
            assert len(live) <= 1, f"unbalanced inputs at {c.output}"
            arrival[c.output] = max(live, default=0) + c.params.delay_samples


class TestSerialization:
    def test_exact_text_form(self):
        text = format_netlist(build_netlist("absolute"))
        assert text == (
            "input f\n"
            "comparator c1 f gnd delay=0 glitch_amp=0.0 glitch_w=2\n"
            "inverting_amp a1 f delay=0 glitch_amp=0.0 glitch_w=2\n"
            "analog_switch out f a1 c1 delay=0 glitch_amp=0.0 glitch_w=2\n"
            "output out\n"
        )

    @pytest.mark.parametrize("kind", NETLIST_KINDS)
    def test_round_trip(self, kind):
        net = build_netlist(
            kind, ComponentParams(delay_samples=2, glitch_amplitude=0.25)
        )
        text = format_netlist(net)
        back = parse_netlist(text)
        assert back.kind is None
        assert back.inputs == net.inputs
        assert back.output == net.output
        assert back.components == net.components
        assert format_netlist(back) == text

    def test_extension_tokens_round_trip(self):
        net = Netlist(
            ("x", "y"),
            (
                comp("summer", "s", "x", "y", signs=(1, -1)),
                comp("lowpass", "lp", "s", cutoff_hz=42.5),
                comp(
                    "comparator",
                    "out",
                    "lp",
                    "gnd",
                    params=ComponentParams(logic_high=5.0, logic_low=0.0),
                ),
            ),
            "out",
        )
        text = format_netlist(net)
        assert "signs=+-" in text
        assert "fc=42.5" in text
        assert "high=5.0 low=0.0" in text
        back = parse_netlist(text)
        assert back.components == net.components

    @pytest.mark.parametrize("high, low, text", [
        (5, 0, "high=5 low=0"),  # an int level is written as one
        (np.int64(5), np.int64(0), "high=5 low=0"),
        (True, False, "high=1.0 low=0.0"),  # a bool level is a float
        (10**30, 0, "high=1e+30 low=0"),  # an int past float precision is the float nearest it
    ])
    def test_levels_are_written_as_numbers_that_read_back(self, high, low, text):
        net = build_netlist("sign", ComponentParams(logic_high=high, logic_low=low))
        assert f" {text}\n" in format_netlist(net)
        assert parse_netlist(format_netlist(net)).components == net.components

    def test_comments_and_blanks_ignored(self):
        text = "# a circuit\n\ninput f\n  inverting_amp out f delay=0\n\noutput out\n"
        net = parse_netlist(text)
        assert net.census() == {"inverting_amp": 1}

    def test_parse_defaults(self):
        net = parse_netlist("input f\ninverting_amp out f\noutput out\n")
        assert net.components[0].params == ComponentParams()

    def test_error_cites_line(self):
        text = "input f\ninput g\ncapacitor out f g\noutput out\n"
        with pytest.raises(errors.NetlistError) as exc:
            parse_netlist(text)
        assert "line 3" in str(exc.value)

    def test_bad_value_cites_line(self):
        with pytest.raises(errors.NetlistError) as exc:
            parse_netlist("input f\ninverting_amp out f delay=x\noutput out\n")
        assert "line 2" in str(exc.value)

    def test_unknown_token_rejected(self):
        with pytest.raises(errors.NetlistError):
            parse_netlist("input f\ninverting_amp out f q=1\noutput out\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(errors.NetlistError, match="^line 2: repeated key 'delay'$"):
            parse_netlist("input f\ninverting_amp out f delay=3 delay=1\noutput out\n")

    def test_missing_output(self):
        with pytest.raises(errors.NetlistError):
            parse_netlist("input f\ninverting_amp out f\n")

    def test_duplicate_output_declaration(self):
        with pytest.raises(errors.NetlistError):
            parse_netlist("input f\ninverting_amp out f\noutput out\noutput f\n")

    def test_wrong_node_count(self):
        with pytest.raises(errors.NetlistError):
            parse_netlist("input f\ncomparator out f\noutput out\n")
