"""Accuracy analysis of simulated circuits against the exact operations.

delay_sweep uses common random numbers across spread levels: one latent
perturbation direction is drawn per seed and scaled by the spread, so the
reported mean rms error curve is a smooth function of the spread rather
than a re-randomized Monte-Carlo estimate per level.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from ..errors import BadParam, ShapeMismatch, finite, whole
from ..ops import OPS
from ..signal import Signal
from .netlist import Netlist
from .sim import SimTrace, _run


def math_reference(net: Netlist, inputs: Mapping[str, Signal]) -> Signal:
    """Exact mathematical output for a netlist built by build_netlist.

    Sign-valued results come back as a SignSeries, a Signal whose +1/-1
    samples compare directly against the simulated logic levels.
    """
    if net.kind is None:
        raise BadParam("netlist carries no operation tag; pass an explicit reference")
    if not isinstance(net.kind, str) or net.kind not in OPS:
        raise BadParam(f"no reference for netlist kind {net.kind!r}")
    return OPS[net.kind][1](*(inputs[name] for name in net.inputs))


def compare_to_math(trace: SimTrace, reference: Signal) -> Dict[str, object]:
    """Error statistics of the trace's output node against a reference.

    Returns a dict with rms_error, max_error, and the full error_signal
    (simulated minus reference).
    """
    out = trace.nodes[trace.output]
    if out.shape != reference.samples.shape:
        raise ShapeMismatch(
            f"trace length {out.size} vs reference length {len(reference)}"
        )
    err, rms = _error_rms(out, reference.samples, "rms error")
    return {
        "rms_error": float(rms),
        "max_error": finite(float(np.max(np.abs(err))), "max error"),
        "error_signal": Signal(reference.dt, reference.t0, err),
    }


def _error_rms(out: np.ndarray, reference: np.ndarray, what: str):
    """out - reference, and its rms along the last axis: BadParam ``what`` unless finite."""
    with np.errstate(over="ignore"):
        err = out - reference
        return err, finite(np.sqrt(np.mean(err * err, axis=-1)), what, array=True)


def quiet_copy(net: Netlist) -> Netlist:
    """The same netlist with every glitch amplitude forced to zero."""
    comps = tuple(
        replace(c, params=replace(c.params, glitch_amplitude=0.0))
        for c in net.components
    )
    return Netlist(net.inputs, comps, net.output, net.kind)


def switching_noise_rms(
    net: Netlist, inputs: Mapping[str, Signal], oversample: int = 1
) -> float:
    """rms of the switching-noise component of the output.

    Runs the netlist as configured and with glitches silenced, as one batch
    of two rows, and measures the rms of the difference. Comparing against
    the quiet run of the same topology isolates the noise the switches inject
    from whatever the configuration's nominal response is (a filter's lag, a
    delay chain's latency), which is the number a mitigation stage is trying
    to shrink.
    """
    own = [c.params for c in net.components]
    rows = _run(net, inputs, oversample, [[p.delay_samples for p in own]],
                [[p.glitch_amplitude for p in own], [0.0] * len(own)])
    out = np.concatenate([nodes[net.output] for _, nodes in rows])  # one row if no row differs
    return float(_error_rms(out[0], out[-1], "switching noise rms")[1])


def delay_sweep(
    net: Netlist,
    inputs: Mapping[str, Signal],
    spreads: Iterable[int],
    *,
    n_seeds: int = 20,
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """Mean rms error of seeded delay perturbations, one row per spread.

    For each of n_seeds trials a perturbation direction in [-1, 1] is drawn
    per component; at spread s the netlist runs with each base delay moved
    by round(direction * s), clamped at zero. Spread 0 therefore runs the
    netlist exactly as given.
    """
    n_seeds = whole(n_seeds, "n_seeds", 1)
    seed = whole(seed, "seed", 0)
    spreads = [whole(s, "spread", 0) for s in spreads]
    ref = math_reference(net, inputs)
    # whole numbers past the float range clamp to its end, where any delay is past the record
    base = np.array([min(c.params.delay_samples, sys.float_info.max) for c in net.components], dtype=float)
    directions = np.array([
        np.random.default_rng((seed, i)).uniform(-1.0, 1.0, size=base.size)
        for i in range(n_seeds)
    ])
    rows: List[Tuple[int, float]] = []
    for spread in spreads:
        with np.errstate(over="ignore"):
            delays = np.maximum(0, np.rint(base + directions * min(spread, sys.float_info.max)))
        total = 0.0
        for count, nodes in _run(net, inputs, 1, delays, [[c.params.glitch_amplitude for c in net.components]]):
            _, rms = _error_rms(nodes[net.output], ref.samples, "sweep rms error")  # one row if no row differs
            for value in np.broadcast_to(rms, count).tolist():
                total += value
        rows.append((spread, total / n_seeds))
    return rows
