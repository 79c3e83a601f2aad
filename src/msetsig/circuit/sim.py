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

A call reuses its node buffers: every batch of rows writes into the buffers
the call has already made, and a node's buffer is free again once its last
reader has run, unless the caller keeps that node. _run alone decides how many
rows a node has; each kernel then fills exactly that many rows of its buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .. import _kernels
from ..errors import BadParam, MetadataMismatch, UnboundInput, finite, named, whole
from ..signal import Signal, _real_array, _sample_interval, check_same_shape
from .netlist import GROUND, Component, Netlist


_BATCH_SAMPLES = 2**17  # per node in one batch of rows, or one row if longer


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Recorded waveform of every node in a simulation run. However the trace is
    built, each node is a new read-only array of finite floats, all of one length."""

    dt: float
    t0: float
    nodes: Mapping[str, np.ndarray] = field(repr=False)
    output: str

    def __post_init__(self):
        object.__setattr__(self, "dt", _sample_interval(self.dt))
        object.__setattr__(self, "t0", finite(self.t0, "t0"))
        if not isinstance(self.nodes, Mapping) or not self.nodes:
            raise BadParam("trace has no nodes")
        nodes = {name: _real_array(wave, f"waveform at node {name!r}") for name, wave in self.nodes.items()}
        if len({wave.size for wave in nodes.values()}) != 1:
            raise BadParam("trace waveforms differ in length")
        for name, wave in nodes.items():
            finite(wave, f"waveform at node {name!r}", array=True)
        if not named(self.output, nodes):
            raise BadParam(f"output node {self.output!r} not recorded")
        object.__setattr__(self, "nodes", MappingProxyType(nodes))

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
    mid = 0.5 * (p.logic_high + p.logic_low)
    for r in np.nonzero(amps > 0.0)[0]:
        row, d = out[r], min(int(steps[r]), out.shape[1])  # the control input read d samples back
        s = np.concatenate([np.full(d, 0.0 >= mid), ins[2][r % len(ins[2])][: row.size - d] >= mid])
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


def _lowpass(comp: Component, x: np.ndarray, ins, steps: np.ndarray, dt_sim: float, *_):
    _kernels.lowpass(x, 1.0 - math.exp(-2.0 * math.pi * comp.cutoff_hz * dt_sim))


# kind -> (the delayed_op giving its rows, None or fn(comp, rows, ins, steps, dt_sim, oversample, amps)
# finishing them in place from the input node rows, each row's input delay in simulation steps and its
# glitch amplitude). Only these kinds can turn finite inputs into inf or NaN, so _run checks their nodes
# where it makes them; any other kind is the delayed_op of its name and keeps a non-finite value.
_BEHAVIOUR = {
    "analog_switch": ("analog_switch", _glitches),
    "integrator": ("delay", lambda c, x, ins, steps, dt, *_: np.multiply(np.cumsum(x, -1, out=x), dt, out=x)),
    "lowpass": ("delay", _lowpass),
    "summer": ("summer", None),
}


def _run(net: Netlist, inputs: Mapping[str, Signal], oversample: int, delays, amps, keep, free=None):
    """Yield (rows, nodes) a batch of rows at a time: row r runs with component
    delays delays[r] in input samples (clamped to the record length, past which
    only zero history is read) and glitch amplitudes amps[r]. nodes maps each
    node in keep to a view of its samples on the input grid, (rows, n), or (1, n)
    if its inputs have one row and its delays (a switch's glitch amplitudes too)
    are equal across the batch. Node buffers come from, and go back to, the list
    free, which the next batch and any later call given the same list reuse. A
    non-finite sample at any node raises BadParam."""
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
    # each node that the caller does not keep is free after its last reader
    last = {k: j for j, comp in enumerate(net.components) for k in comp.inputs if k not in sources and k not in keep}
    shape, free = (min(size, steps.shape[1]), len(first) * oversample), [] if free is None else free
    free[:] = [buf for buf in free if buf.shape == shape]
    for lo in range(0, steps.shape[1], size):
        batch, gains, values = steps[:, lo : lo + size], amps[:, lo : lo + size], dict(sources)
        with np.errstate(all="ignore"):  # an overflowed node fails its finite check
            for j, comp in enumerate(net.components):
                (op, finish), ins = _BEHAVIOUR.get(comp.kind, (comp.kind, None)), [values[k] for k in comp.inputs]
                levels = comp.signs or (comp.params.logic_high, comp.params.logic_low)
                varying = (batch[j], gains[j]) if comp.kind == "analog_switch" else (batch[j],)
                one = all(len(x) == 1 for x in ins) and all((v == v[0]).all() for v in varying)
                rows = 1 if one else batch.shape[1]
                wave = (free.pop() if free else np.empty(shape))[:rows]
                _kernels.delayed_op(op, ins, batch[j][:rows], *levels, wave)
                if finish:
                    finish(comp, wave, ins, batch[j][:rows], first.dt / oversample, oversample, gains[j][:rows])
                if comp.kind in _BEHAVIOUR:
                    finite(wave[:, ::oversample], f"waveform at node {comp.output!r}", array=True)
                values[comp.output] = wave
                for k in {k for k in comp.inputs if last.get(k) == j}:
                    free.append(values.pop(k).base)
        yield batch.shape[1], {k: values[k][:, ::oversample] for k in keep}
        free.extend(values[k].base for k in values.keys() - sources.keys())  # free for the next batch


def simulate(net: Netlist, inputs: Mapping[str, Signal], oversample: int = 1) -> SimTrace:
    """Run the netlist over the given input signals and record every node.

    Raises:
        UnboundInput: a declared source node has no bound signal.
        MetadataMismatch: bound signals disagree in length, dt, or t0.
        BadParam: unknown binding name or bad oversample factor.
    """
    own, everything = [c.params for c in net.components], [*net.inputs, *(c.output for c in net.components)]
    rows = _run(net, inputs, oversample, [[p.delay_samples for p in own]], [[p.glitch_amplitude for p in own]],
                everything)
    (_, nodes), first = next(rows), inputs[net.inputs[0]]
    return SimTrace(first.dt, first.t0, {name: wave[0] for name, wave in nodes.items()}, net.output)
