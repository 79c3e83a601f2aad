"""Netlist constructors for the supported signal operations.

Each builder wires the standard comparator/switch/amp realization of one
operation. The common-product topology keeps the separate absolute-value
and sign-detection branches of the full design, so the sign of each input
is measured twice: once feeding the absolute-value switch and once feeding
the equivalence gate. The duplication is deliberate (the composed circuit
is assembled from the stand-alone sub-circuits, redundancy and all) and is
what gives the documented census of five comparators, four switches, three
inverting amplifiers, and one equivalence gate.

When components carry nonzero delay, reconvergent paths would drift apart,
so every builder runs a balancing pass that inserts pure delay pads until
all inputs of every component arrive with equal total delay. Ground is
exempt (a delayed zero is still zero), and pads do not appear in the
component census.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..errors import BadParam, named
from .netlist import GROUND, Component, ComponentParams, Netlist

# Operation -> (input nodes, components as (type, output, *inputs)). Every
# topology drives node "out".
_TOPOLOGIES = {
    "sign": (("f",), (("comparator", "out", "f", GROUND),)),
    "intersection": (("f", "g"), (
        ("comparator", "c1", "g", "f"),
        ("analog_switch", "out", "f", "g", "c1"),
    )),
    "union": (("f", "g"), (
        ("comparator", "c1", "f", "g"),
        ("analog_switch", "out", "f", "g", "c1"),
    )),
    "absolute": (("f",), (
        ("comparator", "c1", "f", GROUND),
        ("inverting_amp", "a1", "f"),
        ("analog_switch", "out", "f", "a1", "c1"),
    )),
    "conjoint_sign": (("f", "g"), (
        ("comparator", "c1", "f", GROUND),
        ("comparator", "c2", "g", GROUND),
        ("equivalence_gate", "out", "c1", "c2"),
    )),
    "signify": (("a", "s"), (
        ("inverting_amp", "a1", "a"),
        ("analog_switch", "out", "a", "a1", "s"),
    )),
    # Full common product: two absolute-value branches, a minimum stage, a
    # dedicated sign-measurement pair into the equivalence gate, and a final
    # signification switch.
    "common_product": (("f", "g"), (
        ("comparator", "c1", "f", GROUND),
        ("inverting_amp", "a1", "f"),
        ("analog_switch", "s1", "f", "a1", "c1"),
        ("comparator", "c2", "g", GROUND),
        ("inverting_amp", "a2", "g"),
        ("analog_switch", "s2", "g", "a2", "c2"),
        ("comparator", "c5", "s2", "s1"),
        ("analog_switch", "s3", "s1", "s2", "c5"),
        ("comparator", "c3", "f", GROUND),
        ("comparator", "c4", "g", GROUND),
        ("equivalence_gate", "e1", "c3", "c4"),
        ("inverting_amp", "a3", "s3"),
        ("analog_switch", "out", "s3", "a3", "e1"),
    )),
}
NETLIST_KINDS = tuple(_TOPOLOGIES)


def _arrivals(inputs, components) -> dict:
    """Accumulated delay, in samples, at every node: a component's output
    lags the latest of its non-ground inputs by the component's own delay."""
    arrival = dict.fromkeys((GROUND, *inputs), 0)
    for comp in components:
        live = [arrival[n] for n in comp.inputs if n != GROUND]
        arrival[comp.output] = max(live, default=0) + comp.params.delay_samples
    return arrival


def _balance_delays(inputs, components):
    """Insert pass-through delay pads so that, for every component, all
    non-ground inputs carry the same accumulated delay."""
    arrival = _arrivals(inputs, components)
    balanced = []
    pad_count = 0
    for comp in components:
        target = arrival[comp.output] - comp.params.delay_samples
        wired = []
        for name in comp.inputs:
            if name != GROUND and arrival[name] < target:
                pad_count += 1
                pad = Component("delay", f"{name}_pad{pad_count}", (name,),
                                ComponentParams(delay_samples=target - arrival[name]))
                balanced.append(pad)
                name = pad.output
            wired.append(name)
        balanced.append(replace(comp, inputs=tuple(wired)))
    return balanced


def build_netlist(kind: str, params: Optional[ComponentParams] = None) -> Netlist:
    """Build a validated feed-forward netlist realizing the named operation.

    params supplies the behavioral defaults applied to every component.
    With nonzero delay_samples the netlist is delay-balanced; the aligned
    output then lags the ideal result by a fixed whole number of samples.
    """
    if not named(kind, NETLIST_KINDS):
        raise BadParam(f"unknown netlist kind {kind!r}")
    p = params if params is not None else ComponentParams()
    inputs, parts = _TOPOLOGIES[kind]
    comps = [Component(ctype, out, tuple(ins), p) for ctype, out, *ins in parts]
    return Netlist(inputs, tuple(_balance_delays(inputs, comps)), "out", kind)


def output_latency(net: Netlist) -> int:
    """Total accumulated delay, in samples, from the inputs to the output of
    a delay-balanced netlist."""
    return _arrivals(net.inputs, net.components)[net.output]
