"""Feed-forward netlist model for the behavioral circuit simulator.

A netlist is an ordered list of components wired between named nodes. The
wiring must be feed-forward: every component input is either a declared
source node, the reserved ground node ``gnd`` (constant zero), or the
output of an earlier component. That ordering is also the evaluation order
used by the simulator, so validation here is what keeps simulation a single
forward pass.

``_KINDS`` states the component kinds and ``_KEYS`` the keys of the text form.
The constructors make every check: BadParam from ComponentParams, else NetlistError.

The text serialization is line oriented. ``input <name>`` and
``output <name>`` declare the sources and the observed node; every other
line is one component, each key at most once:

    <type> <out> <in...> delay=<int> glitch_amp=<float> glitch_w=<int>

Low-pass components carry an extra ``fc=<float>`` token, summers carry
``signs=<+-><+->``, and non-default logic levels appear as ``high=``/``low=``.
"""

from __future__ import annotations

import numbers
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import BadParam, NetlistError, finite, whole

GROUND = "gnd"

# kind -> (input count, the optional field only that kind takes); switch inputs are (in_a, in_b, ctrl)
_KINDS = {
    "comparator": (2, None),
    "analog_switch": (3, None),
    "inverting_amp": (1, None),
    "equivalence_gate": (2, None),
    "summer": (2, "signs"),
    "integrator": (1, None),
    "lowpass": (1, "cutoff_hz"),
    "delay": (1, None),
}
COMPONENT_KINDS = tuple(_KINDS)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name, what: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise NetlistError(f"bad {what} name {name!r}")
    if name == GROUND and what != "node":
        raise NetlistError(f"{GROUND!r} is reserved")


def _items(value, what: str) -> tuple:
    """``value`` as a tuple, if it is an iterable other than a string."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise NetlistError(f"{what} must be a sequence, not {type(value).__name__}")


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
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise NetlistError(f"unknown component type {self.kind!r}")
        want, own = _KINDS[self.kind]
        _check_name(self.output, "output")
        object.__setattr__(self, "inputs", _items(self.inputs, "inputs"))
        for name in self.inputs:
            _check_name(name, "node")
        if len(self.inputs) != want:
            raise NetlistError(f"{self.kind} takes {want} input(s), got {len(self.inputs)}")
        if not isinstance(self.params, ComponentParams):
            raise NetlistError(f"params must be a ComponentParams, not {type(self.params).__name__}")
        for kind, (_, name) in _KINDS.items():
            if name and kind != self.kind and getattr(self, name) is not None:
                raise NetlistError(f"{name} is only valid on {kind}, not {self.kind}")
        if own == "cutoff_hz" and not (isinstance(self.cutoff_hz, numbers.Real) and self.cutoff_hz > 0):
            raise NetlistError("lowpass requires cutoff_hz > 0")
        if own == "signs":
            signs = _items((1, 1) if self.signs is None else self.signs, "summer signs")
            if len(signs) != 2 or not all(isinstance(s, numbers.Real) and s in (1, -1) for s in signs):
                raise NetlistError("summer signs must be a pair of +1/-1")
            object.__setattr__(self, "signs", signs)


@dataclass(frozen=True)
class Netlist:
    inputs: Tuple[str, ...]
    components: Tuple[Component, ...]
    output: str
    kind: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", _items(self.inputs, "netlist inputs"))
        object.__setattr__(self, "components", _items(self.components, "netlist components"))
        if not self.inputs:
            raise NetlistError("netlist declares no inputs")
        known = {GROUND}
        for name in self.inputs:
            _check_name(name, "input")
            if name in known:
                raise NetlistError(f"duplicate input {name!r}")
            known.add(name)
        for comp in self.components:
            if not isinstance(comp, Component):
                raise NetlistError(f"netlist components must be Components, not {type(comp).__name__}")
            for src in comp.inputs:
                if src not in known:
                    raise NetlistError(
                        f"component {comp.output!r} reads undefined node {src!r} "
                        "(wiring must be feed-forward)"
                    )
            if comp.output in known:
                raise NetlistError(f"node {comp.output!r} is driven twice")
            known.add(comp.output)
        if not isinstance(self.output, str) or self.output not in known:
            raise NetlistError(f"output node {self.output!r} is not driven")

    def census(self) -> dict:
        """Count components by type. Pure delay pads are wiring inserted for
        path balancing, not circuit elements, and are not counted."""
        return dict(Counter(comp.kind for comp in self.components if comp.kind != "delay"))


# text key -> (the field it sets, how its value is read, how it is written), in written
# order: fc and signs only where the kind takes them, high and low only off the default
# levels. Reading leaves a signs character other than + or - for Component to reject.
_KEYS = {
    "delay": ("delay_samples", int, str),
    "glitch_amp": ("glitch_amplitude", float, repr),
    "glitch_w": ("glitch_width_samples", int, str),
    "fc": ("cutoff_hz", float, repr),
    "signs": ("signs", lambda text: tuple({"+": 1, "-": -1}.get(ch, ch) for ch in text),
              lambda signs: "".join("+" if s > 0 else "-" for s in signs)),
    "high": ("logic_high", float, repr),
    "low": ("logic_low", float, repr),
}


def format_netlist(net: Netlist) -> str:
    """Serialize to the line-oriented text form."""
    lines = [f"input {name}" for name in net.inputs]
    for c in net.components:
        values = {**vars(c.params), "cutoff_hz": c.cutoff_hz, "signs": c.signs}
        if (c.params.logic_high, c.params.logic_low) == (1.0, -1.0):
            values.update(logic_high=None, logic_low=None)
        keys = [f"{key}={write(values[name])}" for key, (name, _, write) in _KEYS.items() if values[name] is not None]
        lines.append(" ".join([c.kind, c.output, *c.inputs, *keys]))
    lines.append(f"output {net.output}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    """Parse the text form back into a Netlist. The math operation tag is not
    part of the format, so the result has kind=None."""
    if not isinstance(text, str):
        raise NetlistError(f"netlist text must be a string, not {type(text).__name__}")
    decls: dict = {"input": [], "output": []}
    components: list[Component] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        head, *rest = toks
        try:
            if head in decls:
                if len(rest) != 1:
                    raise NetlistError(f"{head} takes one name")
                decls[head].append(rest[0])
                if len(decls["output"]) > 1:
                    raise NetlistError("duplicate output declaration")
                continue
            n = next((i for i, tok in enumerate(rest) if "=" in tok), len(rest))
            if n == 0:
                raise NetlistError(f"{head} needs an output node")
            fields = {}
            for tok in rest[n:]:
                key, _, value = tok.partition("=")
                if not value or key not in _KEYS:
                    raise NetlistError(f"bad token {tok!r}")
                name, read, _ = _KEYS[key]
                if name in fields:
                    raise NetlistError(f"repeated key {key!r}")
                fields[name] = read(value)
            own = {name: fields.pop(name) for _, name in _KINDS.values() if name in fields}
            components.append(Component(head, rest[0], rest[1:n], ComponentParams(**fields), **own))
        except (BadParam, NetlistError, ValueError) as exc:
            raise NetlistError(f"line {lineno}: {exc}") from None
    if not decls["output"]:
        raise NetlistError("missing output declaration")
    return Netlist(decls["input"], components, decls["output"][0])
