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
from ..correlation import _finite
from ..errors import BadParam, MetadataMismatch, UnboundInput, whole
from ..signal import Signal, check_same_shape
from .netlist import GROUND, Component, Netlist


_BATCH_SAMPLES = 2**17  # per node in one batch of rows, or one row if longer


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
            _finite(wave, f"waveform at node {name!r}")
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


def _delayed(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Row r of x read steps[r] samples back, zero before the start."""
    n = x.shape[1]
    if (steps == steps[0]).all():  # one slice moves every row; a shared row stays shared
        if steps[0] == 0:
            return x
        out = np.zeros_like(x)
        out[:, steps[0] :] = x[:, : n - steps[0]]
        return out
    out = np.zeros((steps.size, n))
    for r, d in enumerate(steps.tolist()):
        out[r, d:] = x[r % x.shape[0], : n - d]
    return out


def _switch(comp: Component, ins, dt_sim: float, oversample: int, amps: np.ndarray) -> np.ndarray:
    p = comp.params
    sel = ins[2] >= 0.5 * (p.logic_high + p.logic_low)
    out = np.where(sel, ins[0], ins[1])
    width = p.glitch_width_samples * oversample
    if np.any(amps != amps[0]):  # the rows' glitches differ
        out = np.repeat(out, amps.size // out.shape[0], axis=0)
    for r in np.nonzero(amps[: out.shape[0]] > 0.0)[0]:
        row, s = out[r], sel[r % sel.shape[0]]
        edges = np.nonzero(s[1:] != s[:-1])[0] + 1
        start = np.where(s[edges], amps[r], -amps[r])
        # Pulses add to each sample in ascending edge order: a whole pulse per edge
        # if edges are fewer than offsets, else one offset per pass, descending.
        # The pulse is biphasic: its sign flips every input-grid sample.
        reach = min(width, row.size - edges[0]) if edges.size else 0
        pulse = np.where((np.arange(reach) // oversample) % 2 == 0, 1.0, -1.0)
        if edges.size < reach:
            for e, first in zip(edges.tolist(), start.tolist()):
                row[e : e + reach] += first * pulse[: row.size - e]
        else:
            for j in range(reach - 1, -1, -1):
                hit = np.searchsorted(edges, row.size - j)
                row[edges[:hit] + j] += pulse[j] * start[:hit]
    return out


def _lowpass(comp: Component, ins, dt_sim: float, *_) -> np.ndarray:
    alpha = 1.0 - math.exp(-2.0 * math.pi * comp.cutoff_hz * dt_sim)
    return np.stack([_kernels.lowpass(np.ascontiguousarray(row), alpha) for row in ins[0]])


# kind -> fn(comp, ins, dt_sim, oversample, amps) giving the output rows from the delayed
# input rows and each row's glitch amplitude; for a pure delay pad the delay is the whole behavior
_BEHAVIOUR = {
    "comparator": lambda c, ins, *_: np.where(ins[0] >= ins[1], c.params.logic_high, c.params.logic_low),
    "analog_switch": _switch,
    "inverting_amp": lambda c, ins, *_: -ins[0],
    "equivalence_gate": lambda c, ins, *_: np.where(
        (ins[0] >= 0.0) == (ins[1] >= 0.0), c.params.logic_high, c.params.logic_low
    ),
    "summer": lambda c, ins, *_: c.signs[0] * ins[0] + c.signs[1] * ins[1],
    "integrator": lambda c, ins, dt, *_: np.cumsum(ins[0], axis=-1) * dt,
    "lowpass": _lowpass,
    "delay": lambda c, ins, *_: ins[0],
}


def _run(net: Netlist, inputs: Mapping[str, Signal], oversample: int, delays, amps):
    """Yield every node but ground on the input grid, a batch of rows at a time:
    row r runs with component delays delays[r] in input samples (clamped to the
    record length, past which only zero history is read) and glitch amplitudes
    amps[r]. A node is (rows, n), broadcast from one row while no row differs."""
    oversample = whole(oversample, "oversample", 1)
    for name in net.inputs:
        if name not in inputs:
            raise UnboundInput(name)
    unknown = set(inputs) - set(net.inputs)
    if unknown:
        raise BadParam(f"binding for undeclared input {sorted(unknown)[0]!r}")
    check_same_shape(*(inputs[name] for name in net.inputs), error=MetadataMismatch)
    first = inputs[net.inputs[0]]
    try:  # numpy may be unable to size or allocate the record
        sources = {name: np.repeat(inputs[name].samples, oversample)[None] for name in net.inputs}
        sources[GROUND] = np.zeros((1, len(first) * oversample))
    except (ValueError, OverflowError, MemoryError):
        raise BadParam(f"oversample={oversample} gives too many samples") from None
    steps = np.minimum(delays, len(first)).astype(np.int64) * oversample
    steps, amps = np.broadcast_arrays(steps, np.asarray(amps, dtype=np.float64))
    size = max(1, _BATCH_SAMPLES // (len(first) * oversample))
    for lo in range(0, len(steps), size):
        rows, values = slice(lo, lo + size), dict(sources)
        for j, comp in enumerate(net.components):
            ins = [_delayed(values[name], steps[rows, j]) for name in comp.inputs]
            wave = _BEHAVIOUR[comp.kind](comp, ins, first.dt / oversample, oversample, amps[rows, j])
            values[comp.output] = np.asarray(wave, dtype=np.float64)
        nodes = {k: _finite(np.ascontiguousarray(w[:, ::oversample]), f"waveform at node {k!r}")
                 for k, w in values.items() if k != GROUND}
        yield {k: np.broadcast_to(w, (len(steps[rows]), len(first))) for k, w in nodes.items()}


def simulate(net: Netlist, inputs: Mapping[str, Signal], oversample: int = 1) -> SimTrace:
    """Run the netlist over the given input signals and record every node.

    Raises:
        UnboundInput: a declared source node has no bound signal.
        MetadataMismatch: bound signals disagree in length, dt, or t0.
        BadParam: unknown binding name or bad oversample factor.
    """
    own = [c.params for c in net.components]
    rows = _run(net, inputs, oversample, [[p.delay_samples for p in own]], [[p.glitch_amplitude for p in own]])
    nodes, first = next(rows), inputs[net.inputs[0]]
    return SimTrace(first.dt, first.t0, {name: wave[0] for name, wave in nodes.items()}, net.output)
