"""Fixed-step behavioral simulation of feed-forward netlists.

Because the netlist is feed-forward and already topologically ordered, one
pass over the component list per run is enough; each component's full
output waveform is computed from waveforms that are already known. A
component with delay d reads its inputs d samples back in time, and input
history before the start is zero (a comparator then gives its high level, an
inverting amp -0.0), so the first max-total-delay samples of a run are a
cold-start transient.

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
from ..errors import BadParam, MetadataMismatch, UnboundInput, finite, whole
from ..signal import Signal, _sample_interval, check_same_shape
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
        object.__setattr__(self, "dt", _sample_interval(self.dt))
        object.__setattr__(self, "t0", finite(float(self.t0), "t0"))
        if not self.nodes:
            raise BadParam("trace has no nodes")
        lengths = {len(v) for v in self.nodes.values()}
        if len(lengths) != 1:
            raise BadParam("trace waveforms differ in length")
        for name, wave in self.nodes.items():
            finite(wave, f"waveform at node {name!r}")
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


def _glitches(comp: Component, out: np.ndarray, ins, steps: np.ndarray, dt_sim: float, oversample: int, amps):
    p = comp.params
    width = p.glitch_width_samples * oversample
    if np.any(amps != amps[0]):  # the rows' glitches differ
        out = np.repeat(out, amps.size // out.shape[0], axis=0)
    for r in np.nonzero(amps[: out.shape[0]] > 0.0)[0]:
        ctrl = _kernels.delayed_op("delay", [ins[2][r % len(ins[2])][None]], steps[r : r + 1], 0.0, 0.0)
        row, s = out[r], ctrl[0] >= 0.5 * (p.logic_high + p.logic_low)
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


def _lowpass(comp: Component, x: np.ndarray, ins, steps: np.ndarray, dt_sim: float, *_) -> np.ndarray:
    alpha = 1.0 - math.exp(-2.0 * math.pi * comp.cutoff_hz * dt_sim)
    return np.stack([_kernels.lowpass(row, alpha) for row in x])


# kind -> (the delayed_op giving its rows, fn(comp, rows, ins, steps, dt_sim, oversample, amps)
# finishing them from the input node rows, each row's input delay in simulation steps and its
# glitch amplitude); every other kind is the delayed_op of its name, with nothing to finish
_BEHAVIOUR = {
    "analog_switch": ("analog_switch", _glitches),
    "integrator": ("delay", lambda c, x, ins, steps, dt, *_: np.cumsum(x, axis=-1) * dt),
    "lowpass": ("delay", _lowpass),
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
    steps, amps = (np.ascontiguousarray(a.T) for a in np.broadcast_arrays(steps, np.asarray(amps, dtype=np.float64)))
    size = max(1, _BATCH_SAMPLES // (len(first) * oversample))
    for lo in range(0, steps.shape[1], size):
        batch, gains, values = steps[:, lo : lo + size], amps[:, lo : lo + size], dict(sources)
        with np.errstate(all="ignore"):  # an overflowed node fails the finite check below
            for j, comp in enumerate(net.components):
                (op, finish), ins = _BEHAVIOUR.get(comp.kind, (comp.kind, None)), [values[k] for k in comp.inputs]
                levels = comp.signs or (comp.params.logic_high, comp.params.logic_low)
                wave = _kernels.delayed_op(op, ins, batch[j], *levels)
                if finish:
                    wave = finish(comp, wave, ins, batch[j], first.dt / oversample, oversample, gains[j])
                values[comp.output] = wave
        nodes = {k: finite(np.ascontiguousarray(w[:, ::oversample]), f"waveform at node {k!r}")
                 for k, w in values.items() if k != GROUND}
        yield {k: np.broadcast_to(w, (batch.shape[1], len(first))) for k, w in nodes.items()}


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
