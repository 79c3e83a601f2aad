"""Command-line front end.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed flag
values), 2 on data errors (unreadable files, contract violations), with the
originating error name printed verbatim so scripts can branch on it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, correlation, dsl, io as sio, ops, svg
from ._kernels import BACKEND
from .circuit import (
    NETLIST_KINDS,
    Component,
    ComponentParams,
    Netlist,
    build_netlist,
    compare_to_math,
    delay_sweep,
    math_reference,
    simulate,
    switching_noise_rms,
)
from .errors import MsetError
from .signal import GEN_KINDS, Signal, gen


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _spread_range(text: str) -> List[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI, got {text!r}"
        ) from None


def _bind_pair(text: str) -> Tuple[str, str]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=FILE, got {text!r}")
    return name, path


def _default_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("MSET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MsetError(f"MSET_SEED must be an integer, got {env!r}") from None
    return 0


def _signal_series(label: str, sig: Signal) -> tuple:
    return (label, sig.times(), sig.samples)


# Each data command writes its outputs and returns its quick-look plot as
# (series, title); main draws it when --svg names a file.
def cmd_gen(args) -> tuple:
    seed = _default_seed(args.seed) if args.kind == "white_noise" else args.seed
    sig = gen(
        args.kind,
        args.dt,
        args.n,
        amplitude=args.amp,
        frequency=args.freq,
        phase=args.phase,
        t0=args.t0,
        center=args.center,
        width=args.width,
        seed=seed,
    )
    sio.write_csv(args.out, sig)
    return [_signal_series(args.kind, sig)], "gen"


def cmd_op(args) -> tuple:
    arity, fn = ops.OPS[args.name]
    if arity == 2 and args.b is None:
        args.parser.error(f"--name {args.name} requires --b")
    out = fn(*(sio.read_csv(path) for path in (args.a, args.b)[:arity]))
    sio.write_csv(args.out, out)
    return [_signal_series(args.name, out)], "op"


def cmd_corr(args) -> tuple:
    f = sio.read_csv(args.a)
    g = sio.read_csv(args.b)
    r = correlation.cross_correlate(f, g, args.kind, args.mode)
    sio.write_csv(args.out, r)
    if args.metrics:
        m = correlation.peak_metrics(r)
        print(
            f"peak_lag={m.peak_lag} peak_value={m.peak_value:.12g} "
            f"half_width={m.half_width:.12g} secondary_ratio={m.secondary_ratio:.12g}"
        )
    return [(args.kind, r.lags.astype(float), r.values)], "correlation"


def cmd_expr(args) -> tuple:
    env = dsl.Environment({name: sio.read_csv(path) for name, path in args.bind})
    out = dsl.evaluate(dsl.parse(args.text), env)
    sio.write_csv(args.out, out)
    return [_signal_series("expr", out)], args.text


def _build_sim_netlist(args) -> Netlist:
    params = ComponentParams(
        delay_samples=args.delay,
        glitch_amplitude=args.glitch_amp,
        glitch_width_samples=args.glitch_w,
    )
    net = build_netlist(args.netlist, params)
    if args.lowpass is not None:
        filt = Component("lowpass", "out_lp", (net.output,), ComponentParams(), args.lowpass)
        net = Netlist(net.inputs, (*net.components, filt), "out_lp", net.kind)
    return net


def _sim_inputs(args, net: Netlist) -> Dict[str, Signal]:
    bound: Dict[str, Signal] = {net.inputs[0]: sio.read_csv(args.a)}
    if len(net.inputs) > 1:
        if args.b is None:
            args.parser.error(f"--netlist {args.netlist} requires --b")
        bound[net.inputs[1]] = sio.read_csv(args.b)
    return bound


def cmd_sim(args) -> tuple:
    net = _build_sim_netlist(args)
    inputs = _sim_inputs(args, net)
    trace = simulate(net, inputs, oversample=args.oversample)
    if args.trace:
        sio.write_csv(args.trace, trace)
    series = [_signal_series("out", trace.output_signal())]
    if args.compare:
        ref = math_reference(net, inputs)
        stats = compare_to_math(trace, ref)
        line = f"rms_error={stats['rms_error']:.12g} max_error={stats['max_error']:.12g}"
        if args.glitch_amp > 0:
            noise = switching_noise_rms(net, inputs, args.oversample)
            line += f" noise_rms={noise:.12g}"
        print(line)
        series.append(_signal_series("reference", ref))
    return series, f"sim {args.netlist}"


def cmd_sweep(args) -> tuple:
    net = _build_sim_netlist(args)
    inputs = _sim_inputs(args, net)
    rows = delay_sweep(net, inputs, args.spread, n_seeds=args.seeds, seed=args.seed)
    sio.write_text(args.out, "".join(["spread,mean_rms_error\n", *(f"{s},{rms!r}\n" for s, rms in rows)]))
    xs = np.array([min(s, sys.float_info.max) for s, _ in rows], dtype=float)
    ys = np.array([rms for _, rms in rows])
    return [("mean_rms_error", xs, ys)], f"sweep {args.netlist}"


def cmd_version(args) -> None:
    print(f"msetsig {__version__} (kernels: {BACKEND})")


def build_parser() -> _Parser:
    parser = _Parser(prog="msetsig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="generate a waveform CSV")
    p.add_argument("--kind", choices=GEN_KINDS, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--center", type=float, default=None)
    p.add_argument("--width", type=float, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed; falls back to MSET_SEED, then 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("op", help="apply one signal operation")
    p.add_argument("--name", choices=tuple(ops.OPS), required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_op, parser=p)

    p = sub.add_parser("corr", help="cross-correlate two signal files")
    p.add_argument("--kind", choices=correlation.CORR_KINDS, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mode", choices=correlation.CORR_MODES, default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", action="store_true",
                   help="print a peak summary line to stdout")
    p.set_defaults(func=cmd_corr, parser=p)

    p = sub.add_parser("expr", help="evaluate a signal expression")
    p.add_argument("--text", required=True)
    p.add_argument("--bind", type=_bind_pair, action="append", default=[],
                   metavar="NAME=FILE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_expr, parser=p)

    for name in ("sim", "sweep"):
        p = sub.add_parser(
            name,
            help="simulate a circuit realization" if name == "sim"
            else "rms error vs delay mismatch",
        )
        p.add_argument("--netlist", choices=NETLIST_KINDS, required=True)
        p.add_argument("--a", required=True)
        p.add_argument("--b", default=None)
        p.add_argument("--delay", type=int, default=0)
        p.add_argument("--glitch-amp", type=float, default=0.0)
        p.add_argument("--glitch-w", type=int, default=2)
        p.add_argument("--lowpass", type=float, default=None, metavar="FC",
                       help="append a low-pass stage with this cutoff")
        p.add_argument("--oversample", type=int, default=1)
        if name == "sim":
            p.add_argument("--trace", default=None, help="write all node waveforms")
            p.add_argument("--compare", action="store_true",
                           help="print rms/max error against the exact operation")
            p.set_defaults(func=cmd_sim, parser=p)
        else:
            p.add_argument("--spread", type=_spread_range, required=True,
                           metavar="N|LO..HI")
            p.add_argument("--seeds", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", required=True)
            p.set_defaults(func=cmd_sweep, parser=p)
    for p in sub.choices.values():
        p.add_argument("--svg", metavar="FILE", help="also write a quick-look SVG plot")

    p = sub.add_parser("version", help="print version and kernel backend")
    p.set_defaults(func=cmd_version, parser=p, svg=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plot = args.func(args)
        if args.svg:
            sio.write_text(args.svg, svg.line_plot(*plot))
    except MsetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
