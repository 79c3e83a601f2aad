"""The four benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one caller. ``op(i)`` is operation i;
it is a pure function of the seed and i, so a replay from i = 0 repeats the
same work and the same exact counts. ``keep(i, out)`` runs after the
operation's clock has stopped and reduces its output to a small record
(arrays are kept once per distinct content, so memory does not grow with
the number of operations). ``check(records)`` runs after the timed phase
and returns one pass/fail flag per record.

msetsig functions are called through their module attributes
(``corr.cross_correlate``, ``circuit.simulate``) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-12


def close(got, want, tol=REL_TOL) -> bool:
    """Max abs deviation within tol times the largest |want| (exact for zeros)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    if want.size == 0:
        return True
    return bool(np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)))


def sgn(x):
    return np.where(x >= 0.0, 1.0, -1.0)


def cprod(a, b):
    """Common product: sign(a)·sign(b)·min(|a|, |b|), with sign(0) = +1."""
    return sgn(a) * sgn(b) * np.minimum(np.abs(a), np.abs(b))


def brute_xcorr(f: np.ndarray, g: np.ndarray, dt: float, common: bool) -> np.ndarray:
    """Full-range correlation by direct evaluation of every lag's pair sum.

    Lag k pairs f[i] with g[i-k]; zero padding makes every lag a window of
    the padded f against all of g, evaluated in row blocks.
    """
    m = g.size
    pad = np.concatenate([np.zeros(m - 1), f, np.zeros(m - 1)])
    windows = np.lib.stride_tricks.sliding_window_view(pad, m)
    out = np.empty(windows.shape[0])
    step = max(1, (1 << 21) // m)
    for lo in range(0, windows.shape[0], step):
        w = windows[lo : lo + step]
        if common:
            out[lo : lo + step] = cprod(w, g).sum(axis=1)
        else:
            out[lo : lo + step] = w @ g
    return out * dt


class Kept:
    """Arrays and byte strings kept once per distinct content."""

    def __init__(self):
        self.items: dict = {}

    def __call__(self, obj) -> str:
        if isinstance(obj, np.ndarray):
            data = np.ascontiguousarray(obj)
            key = f"{data.dtype}{data.shape}:" + hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
        else:
            key = "bytes:" + hashlib.blake2b(obj, digest_size=16).hexdigest()
        self.items.setdefault(key, obj)
        return key

    def __getitem__(self, key):
        return self.items[key]


def distinct_magnitudes(x: np.ndarray) -> int:
    return int(np.unique(np.abs(x)).size)


class Workload:
    name = ""
    why = ""
    cycle = 1  # the timed phase ends on a multiple of this many operations
    min_ops = 100  # p90 needs ten samples beyond it
    traced_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.kept = Kept()
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def keep(self, i: int, out):
        raise NotImplementedError

    def check(self, records) -> list:
        raise NotImplementedError

    def label(self, i: int) -> str:
        return self.name

    def properties(self, records) -> dict:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class MatchFloat(Workload):
    name = "match_float"
    why = "template matching on continuous data; kernels dominate and every magnitude is distinct"
    N, M, POOL, DT = 4096, 1024, 8, 1e-3
    cycle = POOL
    traced_ops = 2 * POOL

    def setup(self):
        import msetsig

        rng = np.random.default_rng([0xF1, self.seed])
        self.cases = []
        for _ in range(self.POOL):
            tpl = rng.standard_normal(self.M)
            rec = rng.standard_normal(self.N)
            lag = int(rng.integers(0, self.N - self.M + 1))
            rec[lag : lag + self.M] += tpl
            self.cases.append((msetsig.Signal(self.DT, 0.0, rec), msetsig.Signal(self.DT, 0.0, tpl), lag))
        self.op(0)

    def op(self, i):
        from msetsig import correlation as corr

        f, g, _ = self.cases[i % self.POOL]
        out = []
        for kind in ("common", "classic"):
            r = corr.cross_correlate(f, g, kind, "full")
            out.append((kind, r, corr.peak_metrics(r)))
        return out

    def keep(self, i, out):
        return (i % self.POOL, [(kind, self.kept(r.lags), self.kept(r.values), m.peak_lag, m.peak_value)
                                for kind, r, m in out])

    def check(self, records):
        oracle = {}
        ok = []
        for case, results in records:
            f, g, lag = self.cases[case]
            good = len(results) == 2
            for kind, lags_key, values_key, peak_lag, peak_value in results:
                if (case, kind) not in oracle:
                    oracle[case, kind] = brute_xcorr(f.samples, g.samples, f.dt, kind == "common")
                want = oracle[case, kind]
                values = self.kept[values_key]
                good = (good
                        and np.array_equal(self.kept[lags_key], np.arange(-(len(g) - 1), len(f)))
                        and close(values, want)
                        and peak_lag == lag
                        and peak_value == float(np.max(values)))
            ok.append(good)
        return ok

    def properties(self, records):
        return {
            "record_samples": self.N,
            "template_samples": self.M,
            "distinct_inputs": self.POOL,
            "distinct_magnitudes": [[distinct_magnitudes(f.samples), distinct_magnitudes(g.samples)]
                                    for f, g, _ in self.cases],
        }


class MatchAdc(Workload):
    name = "match_adc"
    why = "delay estimation on 6-8 bit quantized records; few distinct magnitudes"
    N, BITS, DT = 3072, (6, 7, 8, 6, 7, 8), 1e-3
    POOL = len(BITS)
    cycle = POOL
    traced_ops = 2 * POOL

    def setup(self):
        import msetsig

        rng = np.random.default_rng([0xAD, self.seed])
        span = self.N // 4
        self.cases = []
        for bits in self.BITS:
            half = 2 ** (bits - 1)
            # Every code appears about (N + 2*span) / (2*half + 1) >= 17 times in
            # the shared source, so each record holds every magnitude level.
            codes = np.resize(np.arange(-half, half + 1, dtype=np.float64), self.N + 2 * span)
            src = rng.permutation(codes)
            delay = int(rng.integers(-span, span + 1))
            y = src[span : span + self.N]
            x = src[span - delay : span - delay + self.N].copy()
            dither = rng.random(self.N) < 0.1
            x[dither] = np.clip(x[dither] + rng.choice([-1.0, 1.0], int(dither.sum())), -half, half)
            self.cases.append((msetsig.Signal(self.DT, 0.0, x), msetsig.Signal(self.DT, 0.0, y), delay, bits))
        self.op(0)

    def op(self, i):
        from msetsig import correlation as corr

        f, g, _, _ = self.cases[i % self.POOL]
        r = corr.cross_correlate(f, g, "common", "full")
        return r, corr.peak_metrics(r)

    def keep(self, i, out):
        r, m = out
        return (i % self.POOL, self.kept(r.lags), self.kept(r.values), m.peak_lag)

    def check(self, records):
        oracle = {}
        ok = []
        for case, lags_key, values_key, peak_lag in records:
            f, g, delay, _ = self.cases[case]
            if case not in oracle:
                oracle[case] = brute_xcorr(f.samples, g.samples, f.dt, True)
            ok.append(np.array_equal(self.kept[lags_key], np.arange(-(len(g) - 1), len(f)))
                      and close(self.kept[values_key], oracle[case])
                      and peak_lag == delay)
        return ok

    def properties(self, records):
        return {
            "samples": self.N,
            "bits": list(self.BITS),
            "distinct_magnitudes": [[distinct_magnitudes(f.samples), distinct_magnitudes(g.samples)]
                                    for f, g, _, _ in self.cases],
        }


class CircuitMc(Workload):
    name = "circuit_mc"
    why = "Monte-Carlo design points of the common-product circuit; simulator and analysis, little correlation"
    N, SWEEP_N, PAIRS, DT, LOWPASS_FC = 10_000, 2_000, 4, 1e-3, 50.0
    SPREADS, SWEEP_SEEDS = tuple(range(6)), 20
    POINTS = tuple(
        (amp, delay, oversample, lowpass)
        for amp in (0.0, 0.1, 0.2)
        for delay in (0, 1)
        for oversample in (1, 4)
        for lowpass in (False, True)
    )
    cycle = len(POINTS)
    traced_ops = len(POINTS)

    @classmethod
    def pair_inputs(cls, pair: int):
        """Input pair ``pair`` of the fixed pool whose results pins.json holds."""
        import msetsig

        rng = np.random.default_rng([0xC1, pair])
        f, g = rng.standard_normal(cls.N), rng.standard_normal(cls.N)
        full = {"f": msetsig.Signal(cls.DT, 0.0, f), "g": msetsig.Signal(cls.DT, 0.0, g)}
        small = {k: s.with_samples(s.samples[: cls.SWEEP_N]) for k, s in full.items()}
        return full, small

    @classmethod
    def netlists(cls, point):
        from msetsig import circuit

        amp, delay, _, lowpass = point
        net = circuit.build_netlist(
            "common_product", circuit.ComponentParams(delay_samples=delay, glitch_amplitude=amp)
        )
        if lowpass:
            filt = circuit.Component("lowpass", "out_lp", (net.output,), circuit.ComponentParams(), cls.LOWPASS_FC)
            net = circuit.Netlist(net.inputs, (*net.components, filt), "out_lp", net.kind)
        return net, circuit.quiet_copy(net)

    @classmethod
    def run_point(cls, net, quiet, point, full, small):
        from msetsig import circuit

        amp, _, oversample, _ = point
        trace = circuit.simulate(net, full, oversample=oversample)
        ref = circuit.math_reference(net, full)
        stats = circuit.compare_to_math(trace, ref)
        noise = circuit.switching_noise_rms(net, full, oversample) if amp > 0 else None
        rows = circuit.delay_sweep(quiet, small, cls.SPREADS, n_seeds=cls.SWEEP_SEEDS, seed=0)
        return trace, ref, stats, noise, rows

    @staticmethod
    def summary(stats, noise, rows) -> dict:
        return {
            "rms_error": stats["rms_error"],
            "max_error": stats["max_error"],
            "noise_rms": noise,
            "sweep": [rms for _, rms in rows],
        }

    def setup(self):
        from msetsig import circuit

        with open(HERE / "pins.json", encoding="utf-8") as fh:
            self.pins = json.load(fh)
        if (self.pins["samples"], self.pins["sweep_samples"], self.pins["points"]) != (
                self.N, self.SWEEP_N, [list(p) for p in self.POINTS]):
            raise RuntimeError("pins.json was made for other circuit_mc sizes; run make_pins.py")
        self.inputs = [self.pair_inputs(p) for p in range(self.PAIRS)]
        self.nets = [self.netlists(point) for point in self.POINTS]
        self.latency = [circuit.output_latency(net) for net, _ in self.nets]
        self.op(0)

    def pair_of(self, i: int) -> int:
        rng = np.random.default_rng([0xC2, self.seed, i // self.cycle])
        return int(rng.integers(0, self.PAIRS, self.cycle)[i % self.cycle])

    def op(self, i):
        j = i % self.cycle
        net, quiet = self.nets[j]
        full, small = self.inputs[self.pair_of(i)]
        return self.run_point(net, quiet, self.POINTS[j], full, small)

    def keep(self, i, out):
        trace, ref, stats, noise, rows = out
        j = i % self.cycle
        amp, _, _, lowpass = self.POINTS[j]
        exact = None
        if amp == 0.0 and not lowpass:
            exact = (self.kept(trace.nodes[trace.output]), self.kept(ref.samples))
        return (j, self.pair_of(i), exact, self.summary(stats, noise, rows), [s for s, _ in rows])

    def check(self, records):
        ok = []
        for j, pair, exact, got, spreads in records:
            want = self.pins["cases"][pair][j]
            good = list(spreads) == list(self.SPREADS) and (got["noise_rms"] is None) == (want["noise_rms"] is None)
            for key in ("rms_error", "max_error", "noise_rms", "sweep"):
                if want[key] is not None:
                    good = good and close(got[key], want[key])
            if exact is not None:
                out, ref = self.kept[exact[0]], self.kept[exact[1]]
                shift = self.latency[j]
                expect = np.zeros_like(ref)
                expect[shift:] = ref[: ref.size - shift]
                good = good and np.array_equal(out, expect)
            ok.append(bool(good))
        return ok

    def properties(self, records):
        points = [self.POINTS[r[0]] for r in records]
        share = lambda pred: sum(map(pred, points)) / len(points)  # noqa: E731
        return {
            "samples": self.N,
            "sweep_samples": self.SWEEP_N,
            "sweep_sims_per_op": len(self.SPREADS) * self.SWEEP_SEEDS,
            "design_points": len(self.POINTS),
            "glitch_share": share(lambda p: p[0] > 0),
            "oversampled_share": share(lambda p: p[2] > 1),
            "delayed_share": share(lambda p: p[1] > 0),
            "lowpass_share": share(lambda p: p[3]),
        }


# ---------------------------------------------------------------- cli_pipeline


def format_signal_csv(samples, dt: float, t0: float = 0.0) -> bytes:
    """The documented signal CSV: a '# dt= t0=' header, one repr per line."""
    lines = [f"# dt={float(dt)!r} t0={float(t0)!r}"]
    lines.extend(map(repr, np.asarray(samples, dtype=np.float64).tolist()))
    return ("\n".join(lines) + "\n").encode()


def parse_signal_csv(data: bytes):
    head, _, body = data.decode().partition("\n")
    meta = dict(tok.split("=", 1) for tok in head.lstrip("#").split())
    return float(meta["dt"]), float(meta["t0"]), np.array(body.split(), dtype=np.float64)


def parse_rows(data: bytes):
    """A header line, then comma-separated float rows."""
    head, *lines = data.decode().splitlines()
    return head, np.array([line.split(",") for line in lines], dtype=np.float64)


# 47 AST nodes, every operator and every call.
EXPR = ("(f \\/ g)~ * cos(h /\\ -g) + abs(sin(f) - 0.5 * g) <> sign(f - h)~ "
        "\\/ (-(f /\\ h) + 2.0 * cos(g))~ /\\ abs(f <> h) - sin(0.25 * f + g)")


def expr_oracle(f, g, h):
    """EXPR written out in numpy, following the grammar's precedence."""
    left = -np.maximum(f, g) * np.cos(np.minimum(h, -g)) + cprod(np.abs(np.sin(f) - 0.5 * g), -sgn(f - h))
    right = np.minimum(-(-np.minimum(f, h) + 2.0 * np.cos(g)), np.abs(cprod(f, h)) - np.sin(0.25 * f + g))
    return np.maximum(left, right)


class CliPipeline(Workload):
    name = "cli_pipeline"
    why = "one msetsig process per op: startup, CSV I/O, the DSL, SVG and the CLI glue"
    N, SIM_N, CORR_N, CORR_M, SWEEP_N, DT = 100_000, 20_000, 2_000, 500, 2_000, 1e-3
    COMMANDS = ("gen", "op", "expr", "corr", "sim", "sweep", "version")
    cycle = len(COMMANDS)
    min_ops = 0  # interpreter startup alone is ~0.35 s; see README
    traced_ops = len(COMMANDS)

    def setup(self):
        rng = np.random.default_rng([0xC3, self.seed])
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.gen_seed = int(rng.integers(0, 2**31))
        a, b, h = (rng.standard_normal(self.N) for _ in range(3))
        tpl = rng.standard_normal(self.CORR_M)
        rec = rng.standard_normal(self.CORR_N)
        self.corr_lag = int(rng.integers(0, self.CORR_N - self.CORR_M + 1))
        rec[self.corr_lag : self.corr_lag + self.CORR_M] += tpl
        self.inputs = {"a": a, "b": b, "h": h, "ca": rec, "cb": tpl,
                       "sa": a[: self.SIM_N], "sb": b[: self.SIM_N],
                       "wa": a[: self.SWEEP_N], "wb": b[: self.SWEEP_N]}
        for name, samples in self.inputs.items():
            (self.workdir / f"{name}.csv").write_bytes(format_signal_csv(samples, self.DT))
        self.max_rss_kb = 0

    def argv(self, cmd: str) -> list:
        w = lambda name: str(self.workdir / name)  # noqa: E731
        return {
            "gen": ["gen", "--kind", "white_noise", "--dt", repr(self.DT), "--n", str(self.N),
                    "--seed", str(self.gen_seed), "--out", w("gen.csv")],
            "op": ["op", "--name", "common_product", "--a", w("a.csv"), "--b", w("b.csv"), "--out", w("op.csv")],
            "expr": ["expr", "--text", EXPR, "--bind", "f=" + w("a.csv"), "--bind", "g=" + w("b.csv"),
                     "--bind", "h=" + w("h.csv"), "--out", w("expr.csv")],
            "corr": ["corr", "--kind", "common", "--a", w("ca.csv"), "--b", w("cb.csv"),
                     "--out", w("corr.csv"), "--metrics"],
            "sim": ["sim", "--netlist", "common_product", "--a", w("sa.csv"), "--b", w("sb.csv"),
                    "--compare", "--trace", w("trace.csv"), "--svg", w("sim.svg")],
            "sweep": ["sweep", "--netlist", "common_product", "--a", w("wa.csv"), "--b", w("wb.csv"),
                      "--delay", "1", "--spread", "0..5", "--out", w("sweep.csv")],
            "version": ["version"],
        }[cmd]

    OUTPUTS = {"gen": ("gen.csv",), "op": ("op.csv",), "expr": ("expr.csv",), "corr": ("corr.csv",),
               "sim": ("trace.csv", "sim.svg"), "sweep": ("sweep.csv",), "version": ()}

    def label(self, i):
        return self.COMMANDS[i % self.cycle]

    def op(self, i):
        cmd = self.label(i)
        argv = [sys.executable, str(HERE / "launch.py")]
        spans = None
        if self.tracer is not None:
            spans = self.workdir / "spans.json"
            argv += ["--spans", str(spans)]
        argv += self.argv(cmd)
        with open(self.workdir / "stdout", "wb") as out, open(self.workdir / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return cmd, proc.returncode, usage.ru_maxrss, spans

    def keep(self, i, out):
        cmd, code, rss_kb, spans = out
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        if spans is not None and spans.exists():
            data = json.loads(spans.read_text())
            self.tracer.merge(data["spans"], data["counters"], i, self.tracer.op_span)
            spans.unlink()
        files = {}
        for name in self.OUTPUTS[cmd]:
            path = self.workdir / name
            files[name] = self.kept(path.read_bytes()) if path.exists() else None
            if path.exists():
                path.unlink()
        stdout = (self.workdir / "stdout").read_text()
        stderr = (self.workdir / "stderr").read_text()
        return cmd, code, stdout, stderr, files

    def peak_rss_mb(self) -> float:
        """The largest child, not this process."""
        return self.max_rss_kb / 1024.0

    def _verdicts(self):
        """One check per subcommand: (stdout check, {output file: check})."""
        import msetsig
        from msetsig import circuit, svg

        a, b, h = self.inputs["a"], self.inputs["b"], self.inputs["h"]
        dt = self.DT

        def signal_file(want):
            def check(data):
                fdt, t0, got = parse_signal_csv(data)
                return fdt == dt and t0 == 0.0 and close(got, want)
            return check

        def corr_file(data):
            head, rows = parse_rows(data)
            want = brute_xcorr(self.inputs["ca"], self.inputs["cb"], dt, True)
            lags = np.arange(-(self.CORR_M - 1), self.CORR_N)
            return (head == f"# dt={dt!r}" and np.array_equal(rows[:, 0], lags)
                    and close(rows[:, 1], want))

        def corr_stdout(text):
            fields = dict(tok.split("=", 1) for tok in text.split())
            want = brute_xcorr(self.inputs["ca"], self.inputs["cb"], dt, True)
            return (int(fields["peak_lag"]) == self.corr_lag
                    and close(float(fields["peak_value"]), np.max(want), 1e-11))

        sa, sb = self.inputs["sa"], self.inputs["sb"]
        sim_out = cprod(sa, sb)
        net = circuit.build_netlist("common_product")

        def trace_file(data):
            head, rows = parse_rows(data)
            names = head.split(",")
            cols = dict(zip(names, rows.T))
            return (names[:2] == ["f", "g"] and len(names) == len(net.components) + 2
                    and np.array_equal(cols["f"], sa) and np.array_equal(cols["g"], sb)
                    and np.array_equal(cols["out"], sim_out))

        def sim_svg(data):
            times = dt * np.arange(self.SIM_N)
            want = svg.line_plot([("out", times, sim_out), ("reference", times, sim_out)],
                                 "sim common_product")
            return data == want.encode()

        def sweep_file(data):
            sig = lambda x: msetsig.Signal(dt, 0.0, x)  # noqa: E731
            delayed = circuit.build_netlist("common_product", circuit.ComponentParams(delay_samples=1))
            rows = circuit.delay_sweep(delayed, {"f": sig(self.inputs["wa"]), "g": sig(self.inputs["wb"])},
                                       range(6), n_seeds=20, seed=0)
            head, got = parse_rows(data)
            return (head == "spread,mean_rms_error" and np.array_equal(got[:, 0], np.arange(6))
                    and close(got[:, 1], [r for _, r in rows]))

        noise = np.random.default_rng(self.gen_seed).standard_normal(self.N)
        return {
            "gen": (lambda s: s == "", {"gen.csv": signal_file(noise)}),
            "op": (lambda s: s == "", {"op.csv": signal_file(cprod(a, b))}),
            "expr": (lambda s: s == "", {"expr.csv": signal_file(expr_oracle(a, b, h))}),
            "corr": (corr_stdout, {"corr.csv": corr_file}),
            "sim": (lambda s: s == "rms_error=0 max_error=0\n", {"trace.csv": trace_file, "sim.svg": sim_svg}),
            "sweep": (lambda s: s == "", {"sweep.csv": sweep_file}),
            "version": (lambda s: s == f"msetsig {msetsig.__version__} (kernels: {msetsig.kernel_backend})\n", {}),
        }

    def check(self, records):
        verdicts = self._verdicts()
        done = {}
        ok = []
        for cmd, code, stdout, stderr, files in records:
            stdout_check, file_checks = verdicts[cmd]
            good = code == 0 and stderr == "" and set(files) == set(file_checks)
            if good and (cmd, stdout) not in done:
                done[cmd, stdout] = bool(stdout_check(stdout))
            good = good and done[cmd, stdout]
            for name, key in files.items():
                if good and key is None:
                    good = False
                if good and key not in done:
                    done[key] = bool(file_checks[name](self.kept[key]))
                good = good and done[key]
            ok.append(good)
        return ok

    def properties(self, records):
        mix = {cmd: 0 for cmd in self.COMMANDS}
        for r in records:
            mix[r[0]] += 1
        return {
            "file_samples": self.N,
            "sim_samples": self.SIM_N,
            "corr_samples": [self.CORR_N, self.CORR_M],
            "sweep_samples": self.SWEEP_N,
            "expr_text": EXPR,
            "subcommand_mix": {cmd: n / len(records) for cmd, n in mix.items()},
        }


WORKLOADS = {w.name: w for w in (MatchFloat, MatchAdc, CircuitMc, CliPipeline)}
