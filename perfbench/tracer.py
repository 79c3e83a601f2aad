"""In-memory spans and counters, recorded from wrappers around msetsig calls.

Nothing here lives inside msetsig. ``install`` replaces every module-level
binding of the traced functions (including re-exports such as
``msetsig.cli.simulate``) with a wrapper that opens a span, and returns a
function that puts the originals back. A span is
``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index of the
enclosing span in the same list (-1 at the top) and ``op`` the id of the
benchmark operation that caused it. Counters are exact problem counts
(pairs, steps, edges, bytes) taken at the same boundaries.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one thread.
"""

from __future__ import annotations

import collections
import inspect
import json
import os
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self.op = -1
        self.op_span = -1
        self._stack: list = []
        self._active: collections.Counter = collections.Counter()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def end(self, idx: int) -> int:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        self._active[span[0]] -= 1
        return span[2] - span[1]

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span. ``name`` may be a callable of the bound
        arguments. A call made while a span of the same name is open (a
        recursive call) is counted but opens no span, so busy time counts
        the outermost call once. ``after(tracer, ns, result, bound)`` runs
        outside the span to record counts."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or after is not None
        tracer = self

        def wrapper(*args, **kwargs):
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            label = name(arguments) if callable(name) else name
            tracer.counters[label + ".calls"] += 1
            if tracer.active(label):
                return fn(*args, **kwargs)
            idx = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = tracer.end(idx)
            if after is not None:
                after(tracer, ns, result, arguments)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def merge(self, spans, counters, op: int, parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op])
        self.counters.update(counters)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _overlap_pairs(nf: int, ng: int, lag_lo: int, lag_hi: int) -> int:
    lags = np.arange(lag_lo, lag_hi + 1)
    hi = np.minimum(nf - 1, lags + ng - 1)
    lo = np.maximum(0, lags)
    return int(np.sum(np.maximum(0, hi - lo + 1)))


def _xcorr_label(a):
    return "kernels.xcorr_common" if a["common"] else "kernels.xcorr_classic"


def _after_xcorr(tr, ns, result, a):
    tr.counters[_xcorr_label(a) + ".pairs"] += _overlap_pairs(a["f"].size, a["g"].size, a["lag_lo"], a["lag_hi"])


def _after_lowpass(tr, ns, result, a):
    tr.counters["kernels.lowpass.samples"] += int(a["x"].size)


def _after_cross_correlate(tr, ns, result, a):
    tr.counters["correlation.cross_correlate.lags"] += len(result)


def _after_simulate(tr, ns, trace, a):
    net, inputs, oversample = a["net"], a["inputs"], int(a["oversample"])
    n = len(inputs[net.inputs[0]])
    tr.counters["circuit.simulate.component_steps"] += len(net.components) * n * oversample
    glitchy = any(c.params.glitch_amplitude > 0.0 for c in net.components)
    tr.counters["circuit.simulate.glitchy.ns" if glitchy else "circuit.simulate.ideal.ns"] += ns
    if tr.active("circuit.delay_sweep"):
        tr.counters["circuit.delay_sweep.sims"] += 1
    for comp in net.components:
        if comp.kind != "analog_switch":
            continue
        p = comp.params
        sel = trace.nodes[comp.inputs[2]] >= 0.5 * (p.logic_high + p.logic_low)
        edges = int(np.count_nonzero(sel[1:] != sel[:-1]))
        tr.counters["circuit.simulate.switch_edges"] += edges
        if p.glitch_amplitude > 0.0 and p.glitch_width_samples > 0:
            tr.counters["circuit.simulate.glitches"] += edges


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _after_read_csv(tr, ns, result, a):
    tr.counters["io.read_csv.bytes"] += _file_bytes(a["path"])


def _after_write_csv(tr, ns, result, a):
    from msetsig.circuit import SimTrace

    tr.counters["io.write_csv.bytes"] += _file_bytes(a["path"])
    if isinstance(a["obj"], SimTrace):
        tr.counters["io.write_csv.trace.ns"] += ns


OPS = ("complement", "sign_fn", "conjoint_sign", "intersection", "union",
       "absolute", "signify", "common_product")

# (span name, module, attribute, after-hook)
TARGETS = [
    (_xcorr_label, "msetsig._kernels", "xcorr", _after_xcorr),
    ("kernels.lowpass", "msetsig._kernels", "lowpass", _after_lowpass),
    ("correlation.cross_correlate", "msetsig.correlation", "cross_correlate", _after_cross_correlate),
    ("correlation.peak_metrics", "msetsig.correlation", "peak_metrics", None),
    *((f"ops.{name}", "msetsig.ops", name, None) for name in OPS),
    ("io.read_csv", "msetsig.io", "read_csv", _after_read_csv),
    ("io.write_csv", "msetsig.io", "write_csv", _after_write_csv),
    ("dsl.parse", "msetsig.dsl", "parse", None),
    ("dsl.evaluate", "msetsig.dsl", "evaluate", None),
    ("dsl.pretty_print", "msetsig.dsl", "pretty_print", None),
    ("circuit.simulate", "msetsig.circuit.sim", "simulate", _after_simulate),
    ("circuit.compare_to_math", "msetsig.circuit.analysis", "compare_to_math", None),
    ("circuit.switching_noise_rms", "msetsig.circuit.analysis", "switching_noise_rms", None),
    ("circuit.delay_sweep", "msetsig.circuit.analysis", "delay_sweep", None),
    ("svg.line_plot", "msetsig.svg", "line_plot", None),
]


def install(tracer: Tracer):
    """Wrap every traced function wherever msetsig binds it; return an undo."""
    import msetsig  # noqa: F401  (loads every submodule the targets name)
    import msetsig.cli  # noqa: F401
    from msetsig.signal import Signal

    undo = []
    modules = [m for k, m in list(sys.modules.items()) if k == "msetsig" or k.startswith("msetsig.")]
    for name, modname, attr, after in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(name, orig, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    init = Signal.__init__
    Signal.__init__ = tracer.wrap("signal.Signal", init)
    undo.append((Signal, "__init__", init))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def _totals(spans):
    busy = collections.Counter()
    child = collections.Counter()
    for name, start, end, parent, _ in spans:
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own = collections.Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - child[idx]
    return busy, own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (value, unit) from the spans and counters recorded."""
    busy, own = _totals(tracer.spans)
    c = tracer.counters
    ms = lambda ns: ns / 1e6  # noqa: E731
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for k in ("common", "classic"):
        p = f"kernels.xcorr_{k}"
        put(p + ".calls", c[p + ".calls"], "count")
        put(p + ".busy_ms", ms(busy[p]), "ms")
        put(p + ".pairs", c[p + ".pairs"], "count")
        put(p + ".pairs_per_s", c[p + ".pairs"] / (busy[p] / 1e9) if busy[p] else 0.0, "1/s")
        # two float64 operands read per pair; computed from the count, not measured
        put(p + ".bytes_computed", 16 * c[p + ".pairs"], "B")
    put("kernels.lowpass.calls", c["kernels.lowpass.calls"], "count")
    put("kernels.lowpass.busy_ms", ms(busy["kernels.lowpass"]), "ms")
    put("kernels.lowpass.samples", c["kernels.lowpass.samples"], "count")

    put("correlation.cross_correlate.busy_ms", ms(busy["correlation.cross_correlate"]), "ms")
    put("correlation.cross_correlate.self_ms", ms(own["correlation.cross_correlate"]), "ms")
    put("correlation.cross_correlate.lags", c["correlation.cross_correlate.lags"], "count")
    put("correlation.peak_metrics.busy_ms", ms(busy["correlation.peak_metrics"]), "ms")

    put("signal.Signal.constructs", c["signal.Signal.calls"], "count")
    put("signal.Signal.busy_ms", ms(busy["signal.Signal"]), "ms")
    put("ops.calls", sum(c[f"ops.{n}.calls"] for n in OPS), "count")
    put("ops.busy_ms", ms(sum(busy[f"ops.{n}"] for n in OPS)), "ms")

    for fn in ("read_csv", "write_csv"):
        p = f"io.{fn}"
        put(p + ".calls", c[p + ".calls"], "count")
        put(p + ".busy_ms", ms(busy[p]), "ms")
        put(p + ".bytes", c[p + ".bytes"], "count")
    put("io.write_csv.trace.busy_ms", ms(c["io.write_csv.trace.ns"]), "ms")

    put("dsl.parse.busy_ms", ms(busy["dsl.parse"]), "ms")
    put("dsl.evaluate.busy_ms", ms(busy["dsl.evaluate"]), "ms")
    put("dsl.evaluate.nodes", c["dsl.evaluate.calls"], "count")
    put("dsl.pretty_print.busy_ms", ms(busy["dsl.pretty_print"]), "ms")

    steps = c["circuit.simulate.component_steps"]
    put("circuit.simulate.calls", c["circuit.simulate.calls"], "count")
    put("circuit.simulate.busy_ms", ms(busy["circuit.simulate"]), "ms")
    put("circuit.simulate.component_steps", steps, "count")
    put("circuit.simulate.ns_per_component_step", busy["circuit.simulate"] / steps if steps else 0.0, "ns")
    put("circuit.simulate.switch_edges", c["circuit.simulate.switch_edges"], "count")
    put("circuit.simulate.glitches", c["circuit.simulate.glitches"], "count")
    put("circuit.simulate.glitchy.busy_ms", ms(c["circuit.simulate.glitchy.ns"]), "ms")
    put("circuit.simulate.ideal.busy_ms", ms(c["circuit.simulate.ideal.ns"]), "ms")
    for fn in ("switching_noise_rms", "delay_sweep"):
        put(f"circuit.{fn}.busy_ms", ms(busy[f"circuit.{fn}"]), "ms")
        put(f"circuit.{fn}.self_ms", ms(own[f"circuit.{fn}"]), "ms")
    put("circuit.delay_sweep.sims", c["circuit.delay_sweep.sims"], "count")
    put("circuit.compare_to_math.busy_ms", ms(busy["circuit.compare_to_math"]), "ms")

    put("cli.main.self_ms", ms(own["cli.main"]), "ms")
    put("svg.line_plot.busy_ms", ms(busy["svg.line_plot"]), "ms")
    return out


# Counts that depend only on the workload and its seed, never on timing.
EXACT_COUNTS = (
    "kernels.xcorr_common.pairs",
    "kernels.xcorr_classic.pairs",
    "kernels.lowpass.samples",
    "circuit.simulate.component_steps",
    "circuit.simulate.switch_edges",
    "circuit.simulate.glitches",
    "circuit.delay_sweep.sims",
    "dsl.evaluate.nodes",
    "io.read_csv.bytes",
    "io.write_csv.bytes",
)
