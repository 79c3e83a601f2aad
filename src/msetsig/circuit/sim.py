"""Fixed-step behavioral simulation of feed-forward netlists.

Because the netlist is feed-forward and already topologically ordered, one
pass over the component list per run is enough; each component's full
output waveform is computed from waveforms that are already known. A
component with delay d reads its inputs d samples back in time, and input
history before the start is zero, so the first max-total-delay samples of a
run are a cold-start transient.

Analog switches are the only noise source: at every control transition the
output picks up an additive glitch of alternating sign (rising edges start
positive, falling edges negative), glitch_width_samples long.

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
from ..errors import BadParam, MetadataMismatch, UnboundInput
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


def _switch(comp: Component, a, b, ctrl, oversample: int) -> np.ndarray:
    p = comp.params
    mid = 0.5 * (p.logic_high + p.logic_low)
    sel = ctrl >= mid
    out = np.where(sel, a, b)
    amp = p.glitch_amplitude
    width = p.glitch_width_samples * oversample
    if amp > 0.0 and width > 0:
        n = out.size
        edges = np.nonzero(sel[1:] != sel[:-1])[0] + 1
        for i in edges:
            start = 1.0 if sel[i] else -1.0
            for j in range(width):
                if i + j >= n:
                    break
                # biphasic: sign flips every input-grid sample of the pulse
                out[i + j] += amp * start * (1.0 if (j // oversample) % 2 == 0 else -1.0)
    return out


def _eval_component(comp: Component, ins, dt_sim: float, oversample: int) -> np.ndarray:
    kind = comp.kind
    p = comp.params
    if kind == "comparator":
        return np.where(ins[0] >= ins[1], p.logic_high, p.logic_low)
    if kind == "analog_switch":
        return _switch(comp, ins[0], ins[1], ins[2], oversample)
    if kind == "inverting_amp":
        return -ins[0]
    if kind == "equivalence_gate":
        same = (ins[0] >= 0.0) == (ins[1] >= 0.0)
        return np.where(same, p.logic_high, p.logic_low)
    if kind == "summer":
        return comp.signs[0] * ins[0] + comp.signs[1] * ins[1]
    if kind == "integrator":
        return np.cumsum(ins[0]) * dt_sim
    if kind == "lowpass":
        alpha = 1.0 - math.exp(-2.0 * math.pi * comp.cutoff_hz * dt_sim)
        return _kernels.lowpass(np.ascontiguousarray(ins[0]), alpha)
    # pure delay pad: the shift below is the whole behavior
    return ins[0]


def simulate(net: Netlist, inputs: Mapping[str, Signal], oversample: int = 1) -> SimTrace:
    """Run the netlist over the given input signals and record every node.

    Raises:
        UnboundInput: a declared source node has no bound signal.
        MetadataMismatch: bound signals disagree in length, dt, or t0.
        BadParam: unknown binding name or bad oversample factor.
    """
    if oversample != int(oversample) or oversample < 1:
        raise BadParam("oversample must be a positive integer")
    oversample = int(oversample)
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
            _eval_component(comp, ins, dt_sim, oversample), dtype=np.float64
        )

    nodes = {}
    for name in net.inputs:
        nodes[name] = values[name][::oversample]
    for comp in net.components:
        nodes[comp.output] = values[comp.output][::oversample]
    return SimTrace(first.dt, first.t0, nodes, net.output)
