"""Feed-forward netlist model for the behavioral circuit simulator.

A netlist is an ordered list of components wired between named nodes. The
wiring must be feed-forward: every component input is either a declared
source node, the reserved ground node ``gnd`` (constant zero), or the
output of an earlier component. That ordering is also the evaluation order
used by the simulator, so validation here is what keeps simulation a single
forward pass.

The text serialization is line oriented. ``input <name>`` and
``output <name>`` declare the sources and the observed node; every other
line is one component:

    <type> <out> <in...> delay=<int> glitch_amp=<float> glitch_w=<int>

Low-pass components carry an extra ``fc=<float>`` token, summers carry
``signs=<+-><+->``, and non-default logic levels appear as ``high=``/``low=``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import BadParam, NetlistError, finite, whole

GROUND = "gnd"

# input counts per component type; switch inputs are (in_a, in_b, ctrl)
_ARITY = {
    "comparator": 2,
    "analog_switch": 3,
    "inverting_amp": 1,
    "equivalence_gate": 2,
    "summer": 2,
    "integrator": 1,
    "lowpass": 1,
    "delay": 1,
}
COMPONENT_KINDS = tuple(_ARITY)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.fullmatch(name):
        raise NetlistError(f"bad {what} name {name!r}")
    if name == GROUND and what != "node":
        raise NetlistError(f"{GROUND!r} is reserved")


@dataclass(frozen=True)
class ComponentParams:
    """Per-component behavioral parameters.

    delay_samples is a propagation delay in input-sample units: the
    component reads its inputs delay_samples back in time (zero before the
    start). glitch_amplitude and glitch_width_samples shape the switching
    glitch injected by analog switches at control transitions. Logic levels
    default to +1/-1 so gate outputs double as sign series.
    """

    delay_samples: int = 0
    glitch_amplitude: float = 0.0
    glitch_width_samples: int = 2
    logic_high: float = 1.0
    logic_low: float = -1.0

    def __post_init__(self):
        for name in ("delay_samples", "glitch_width_samples"):
            object.__setattr__(self, name, whole(getattr(self, name), name, 0))
        for name, least in (("glitch_amplitude", 0), ("logic_high", None), ("logic_low", None)):
            finite(getattr(self, name), name, least)
        if not self.logic_high > self.logic_low:
            raise BadParam("logic_high must exceed logic_low")


@dataclass(frozen=True)
class Component:
    kind: str
    output: str
    inputs: Tuple[str, ...]
    params: ComponentParams = field(default_factory=ComponentParams)
    cutoff_hz: Optional[float] = None
    signs: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise NetlistError(f"unknown component type {self.kind!r}")
        _check_name(self.output, "output")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        for name in self.inputs:
            _check_name(name, "node")
        want = _ARITY[self.kind]
        if len(self.inputs) != want:
            raise NetlistError(
                f"{self.kind} takes {want} input(s), got {len(self.inputs)}"
            )
        if self.kind == "lowpass":
            if self.cutoff_hz is None or not self.cutoff_hz > 0:
                raise NetlistError("lowpass requires cutoff_hz > 0")
        elif self.cutoff_hz is not None:
            raise NetlistError(f"cutoff_hz is only valid on lowpass, not {self.kind}")
        if self.kind == "summer":
            signs = self.signs if self.signs is not None else (1, 1)
            if len(signs) != 2 or any(s not in (1, -1) for s in signs):
                raise NetlistError("summer signs must be a pair of +1/-1")
            object.__setattr__(self, "signs", tuple(signs))
        elif self.signs is not None:
            raise NetlistError(f"signs is only valid on summer, not {self.kind}")


@dataclass(frozen=True)
class Netlist:
    inputs: Tuple[str, ...]
    components: Tuple[Component, ...]
    output: str
    kind: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "components", tuple(self.components))
        if not self.inputs:
            raise NetlistError("netlist declares no inputs")
        known = {GROUND}
        for name in self.inputs:
            _check_name(name, "input")
            if name in known:
                raise NetlistError(f"duplicate input {name!r}")
            known.add(name)
        for comp in self.components:
            for src in comp.inputs:
                if src not in known:
                    raise NetlistError(
                        f"component {comp.output!r} reads undefined node {src!r} "
                        "(wiring must be feed-forward)"
                    )
            if comp.output in known:
                raise NetlistError(f"node {comp.output!r} is driven twice")
            known.add(comp.output)
        if self.output not in known:
            raise NetlistError(f"output node {self.output!r} is not driven")

    def census(self) -> dict:
        """Count components by type. Pure delay pads are wiring inserted for
        path balancing, not circuit elements, and are not counted."""
        counts: dict = {}
        for comp in self.components:
            if comp.kind == "delay":
                continue
            counts[comp.kind] = counts.get(comp.kind, 0) + 1
        return counts


def format_netlist(net: Netlist) -> str:
    """Serialize to the line-oriented text form."""
    lines = [f"input {name}" for name in net.inputs]
    for c in net.components:
        p = c.params
        parts = [c.kind, c.output, *c.inputs]
        parts.append(f"delay={p.delay_samples}")
        parts.append(f"glitch_amp={p.glitch_amplitude!r}")
        parts.append(f"glitch_w={p.glitch_width_samples}")
        if c.kind == "lowpass":
            parts.append(f"fc={c.cutoff_hz!r}")
        if c.kind == "summer":
            parts.append("signs=" + "".join("+" if s > 0 else "-" for s in c.signs))
        if (p.logic_high, p.logic_low) != (1.0, -1.0):
            parts.append(f"high={p.logic_high!r}")
            parts.append(f"low={p.logic_low!r}")
        lines.append(" ".join(parts))
    lines.append(f"output {net.output}")
    return "\n".join(lines) + "\n"


def _parse_kv(tok: str, lineno: int) -> tuple[str, str]:
    key, sep, val = tok.partition("=")
    if not sep or not val:
        raise NetlistError(f"line {lineno}: bad token {tok!r}")
    return key, val


def parse_netlist(text: str) -> Netlist:
    """Parse the text form back into a Netlist. The math operation tag is not
    part of the format, so the result has kind=None."""
    inputs: list[str] = []
    components: list[Component] = []
    output = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        head = toks[0]
        if head == "input":
            if len(toks) != 2:
                raise NetlistError(f"line {lineno}: input takes one name")
            inputs.append(toks[1])
            continue
        if head == "output":
            if len(toks) != 2:
                raise NetlistError(f"line {lineno}: output takes one name")
            if output is not None:
                raise NetlistError(f"line {lineno}: duplicate output declaration")
            output = toks[1]
            continue
        if head not in COMPONENT_KINDS:
            raise NetlistError(f"line {lineno}: unknown component type {head!r}")
        arity = _ARITY[head]
        node_toks = toks[1 : 2 + arity]
        if len(node_toks) != 1 + arity or any("=" in t for t in node_toks):
            raise NetlistError(f"line {lineno}: {head} needs an output and {arity} input(s)")
        kv = dict(_parse_kv(t, lineno) for t in toks[2 + arity :])
        try:
            params = ComponentParams(
                delay_samples=int(kv.pop("delay", 0)),
                glitch_amplitude=float(kv.pop("glitch_amp", 0.0)),
                glitch_width_samples=int(kv.pop("glitch_w", 2)),
                logic_high=float(kv.pop("high", 1.0)),
                logic_low=float(kv.pop("low", -1.0)),
            )
            cutoff = float(kv.pop("fc")) if "fc" in kv else None
            signs = None
            if "signs" in kv:
                text_signs = kv.pop("signs")
                if not re.fullmatch(r"[+-]{2}", text_signs):
                    raise NetlistError(f"line {lineno}: bad signs {text_signs!r}")
                signs = tuple(1 if ch == "+" else -1 for ch in text_signs)
        except (ValueError, BadParam) as exc:
            raise NetlistError(f"line {lineno}: {exc}") from None
        if kv:
            raise NetlistError(f"line {lineno}: unknown token {sorted(kv)[0]!r}")
        try:
            components.append(
                Component(head, node_toks[0], tuple(node_toks[1:]), params, cutoff, signs)
            )
        except NetlistError as exc:
            raise NetlistError(f"line {lineno}: {exc}") from None
    if output is None:
        raise NetlistError("missing output declaration")
    return Netlist(tuple(inputs), tuple(components), output)
