"""Fixed-step behavioral simulation of feed-forward netlists.

Because the netlist is feed-forward and already topologically ordered, one
pass over the component list per run is enough; each component's full
output waveform is computed from waveforms that are already known. A
component with delay d reads its inputs d samples back in time, and input
history before the start is zero, so the first max-total-delay samples of a
run are a cold-start transient.

Analog switches are the only noise source: at every control transition the
output picks up an additive glitch of alternating sign (rising edges start
positive, falling edges negative), glitch_width_samples long. Pulses that
overlap add, sample by sample, in the order of their edges.

An integer oversample factor refines the time step: inputs are sample-and-
hold expanded, delays and glitch widths scale so their physical duration is
unchanged, and the recorded trace is decimated back to the input grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from .. import _kernels
from ..errors import BadParam, MetadataMismatch, UnboundInput, whole
from ..signal import Signal, check_same_shape
from .netlist import GROUND, Component, Netlist


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Recorded waveform of every node in a simulation run."""

    dt: float
    t0: float
    nodes: Dict[str, np.ndarray] = field(repr=False)
    output: str

    def __post_init__(self):
        if not self.nodes:
            raise BadParam("trace has no nodes")
        lengths = {len(v) for v in self.nodes.values()}
        if len(lengths) != 1:
            raise BadParam("trace waveforms differ in length")
        for name, wave in self.nodes.items():
            if not np.all(np.isfinite(wave)):
                raise BadParam(f"non-finite waveform at node {name!r}")
        if self.output not in self.nodes:
            raise BadParam(f"output node {self.output!r} not recorded")

    def __len__(self) -> int:
        return len(self.nodes[self.output])

    def __repr__(self) -> str:
        return f"SimTrace({len(self.nodes)} nodes x {len(self)} steps, output={self.output!r})"

    def output_signal(self) -> Signal:
        return Signal(self.dt, self.t0, self.nodes[self.output])

    def node_signal(self, name: str) -> Signal:
        return Signal(self.dt, self.t0, self.nodes[name])


def _delayed(x: np.ndarray, steps: int) -> np.ndarray:
    if steps <= 0:
        return x
    out = np.zeros_like(x)
    if steps < x.size:
        out[steps:] = x[: x.size - steps]
    return out


def _switch(comp: Component, ins, dt_sim: float, oversample: int) -> np.ndarray:
    p = comp.params
    sel = ins[2] >= 0.5 * (p.logic_high + p.logic_low)
    out = np.where(sel, ins[0], ins[1])
    width = p.glitch_width_samples * oversample
    if p.glitch_amplitude > 0.0 and width > 0:
        n = out.size
        edges = np.nonzero(sel[1:] != sel[:-1])[0] + 1
        start = np.where(sel[edges], p.glitch_amplitude, -p.glitch_amplitude)
        # Descending offsets add overlapping pulses to each sample in
        # ascending edge order; offsets of n - edges[0] or more land past
        # the end. The pulse is biphasic: its sign flips every input-grid
        # sample.
        reach = min(width, n - edges[0]) if edges.size else 0
        for j in range(reach - 1, -1, -1):
            hit = np.searchsorted(edges, n - j)
            out[edges[:hit] + j] += start[:hit] if (j // oversample) % 2 == 0 else -start[:hit]
    return out


def _lowpass(comp: Component, ins, dt_sim: float, oversample: int) -> np.ndarray:
    alpha = 1.0 - math.exp(-2.0 * math.pi * comp.cutoff_hz * dt_sim)
    return _kernels.lowpass(np.ascontiguousarray(ins[0]), alpha)


# kind -> fn(comp, ins, dt_sim, oversample) giving the output waveform from the
# already delayed inputs; for a pure delay pad the delay is the whole behavior
_BEHAVIOUR = {
    "comparator": lambda c, ins, dt, os_: np.where(ins[0] >= ins[1], c.params.logic_high, c.params.logic_low),
    "analog_switch": _switch,
    "inverting_amp": lambda c, ins, dt, os_: -ins[0],
    "equivalence_gate": lambda c, ins, dt, os_: np.where(
        (ins[0] >= 0.0) == (ins[1] >= 0.0), c.params.logic_high, c.params.logic_low
    ),
    "summer": lambda c, ins, dt, os_: c.signs[0] * ins[0] + c.signs[1] * ins[1],
    "integrator": lambda c, ins, dt, os_: np.cumsum(ins[0]) * dt,
    "lowpass": _lowpass,
    "delay": lambda c, ins, dt, os_: ins[0],
}


def simulate(net: Netlist, inputs: Mapping[str, Signal], oversample: int = 1) -> SimTrace:
    """Run the netlist over the given input signals and record every node.

    Raises:
        UnboundInput: a declared source node has no bound signal.
        MetadataMismatch: bound signals disagree in length, dt, or t0.
        BadParam: unknown binding name or bad oversample factor.
    """
    oversample = whole(oversample, "oversample", 1)
    for name in net.inputs:
        if name not in inputs:
            raise UnboundInput(name)
    unknown = set(inputs) - set(net.inputs)
    if unknown:
        raise BadParam(f"binding for undeclared input {sorted(unknown)[0]!r}")
    check_same_shape(*(inputs[name] for name in net.inputs), error=MetadataMismatch)
    first = inputs[net.inputs[0]]

    n = len(first) * oversample
    dt_sim = first.dt / oversample
    values: Dict[str, np.ndarray] = {GROUND: np.zeros(n)}
    for name in net.inputs:
        values[name] = np.repeat(inputs[name].samples, oversample)
    for comp in net.components:
        steps = comp.params.delay_samples * oversample
        ins = [_delayed(values[name], steps) for name in comp.inputs]
        values[comp.output] = np.asarray(
            _BEHAVIOUR[comp.kind](comp, ins, dt_sim, oversample), dtype=np.float64
        )

    nodes = {name: wave[::oversample] for name, wave in values.items() if name != GROUND}
    return SimTrace(first.dt, first.t0, nodes, net.output)
