"""msetsig benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; msetsig is imported from its src/. The
run sets up the workload five times in fresh processes (the median is
``setup_s``), sets it up once more here, then runs operations one at a time
for at least S seconds and 100 operations (cli_pipeline: S seconds),
stopping on a whole cycle of the workload's operation mix. Every output is
checked after the timed phase. With ``--trace 1`` a traced phase follows:
a fixed replay of the first operations with the tracer's wrappers
installed, giving the per-layer metrics and ``trace.overhead_ratio``.

The last stdout line is one JSON object: correct, attempted, failed, and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
Everything, including the environment, the input properties and the
other set of metrics, is also written under .bench_out/. The exit code is
0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as trace_mod
from workloads import WORKLOADS, CliPipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import msetsig

    return {
        "kernel_backend": msetsig.kernel_backend,
        "msetsig": msetsig.__version__,
        "msetsig_path": str(Path(msetsig.__file__).parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def build_extension() -> int:
    """Compile msetsig's optional extension in place, as an install would;
    without a compiler the python backend runs, and the record says which."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "build.log", "w", encoding="utf-8") as log:
        done = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, timeout=600)
    return done.returncode


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its setup is done."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def run_phase(wl, seconds=None, n_ops=None, tracer=None):
    """Operations one at a time; returns (latencies in ns, records, raised)."""
    lat, records, raised = [], [], []
    begin = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (i % wl.cycle == 0 and i >= wl.min_ops
              and time.perf_counter() - begin >= seconds):
            break
        if tracer is not None:
            tracer.op = i
            tracer.op_span = tracer.begin("op")
        start = time.perf_counter_ns()
        try:
            out = wl.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        lat.append(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.end(tracer.op_span)
        if isinstance(out, Exception):
            raised.append(f"op {i}: {type(out).__name__}: {out}")
            records.append(None)
        else:
            records.append(wl.keep(i, out))
        i += 1
    return lat, records, raised


def traced_phase(wl):
    """Replay the first ``wl.traced_ops`` operations under the tracer."""
    tracer = trace_mod.Tracer()
    wl.tracer = tracer
    restore = trace_mod.install(tracer)
    try:
        lat, records, raised = run_phase(wl, n_ops=wl.traced_ops, tracer=tracer)
    finally:
        restore()
        wl.tracer = None
    return tracer, lat, records, raised


def verdicts(wl, records):
    """One pass/fail per record; an operation that raised (None) fails."""
    it = iter(wl.check([r for r in records if r is not None]))
    return [r is not None and next(it) for r in records]


def end_to_end(lat_ns, cycle, ok, setup_s, rss_mb) -> dict:
    lat_ms = [ns / 1e6 for ns in lat_ns]
    # Rate over each whole cycle of the operation mix, then the median, so a
    # few seconds of contention from outside the process move it less.
    rates = [cycle / (sum(lat_ns[i : i + cycle]) / 1e9) for i in range(0, len(lat_ns), cycle)]
    return {
        "throughput_ops_s": (statistics.median(rates), "ops/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (sum(ok) / len(ok), "ratio"),
    }


def per_layer(wl, tracer, lat_ns, traced_lat_ns) -> dict:
    out = trace_mod.layer_metrics(tracer)
    for cmd in CliPipeline.COMMANDS:
        mine = [ns / 1e6 for i, ns in enumerate(lat_ns) if wl.label(i) == cmd]
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(mine) if mine else 0.0, "ms")
    untraced = len(lat_ns) / sum(lat_ns)
    traced = len(traced_lat_ns) / sum(traced_lat_ns)
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "msetsig" / "__init__.py").is_file():
        print(f"error: no msetsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, OUT / f"work-{args.workload}-{os.getpid()}")
    try:
        if args.probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        return measure(wl, args)
    finally:
        wl.cleanup()


def measure(wl, args) -> int:
    build_exit = build_extension()
    setup_s = statistics.median(probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES))
    wl.setup()
    lat, records, raised = run_phase(wl, seconds=args.seconds)
    rss_mb = wl.peak_rss_mb()

    layers = None
    if args.trace:
        tracer, t_lat, t_records, t_raised = traced_phase(wl)
        layers = per_layer(wl, tracer, lat, t_lat)

    ok = verdicts(wl, records)
    if args.trace:
        ok += verdicts(wl, t_records)
        raised += t_raised
    e2e = end_to_end(lat, wl.cycle, ok, setup_s, rss_mb)
    attempted, failed = len(ok), ok.count(False)

    env = dict(environment(args.seed), build_ext_exit=build_exit)
    props = wl.properties([r for r in records if r is not None])
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": wl.name,
        "why": wl.why,
        "environment": env,
        "input_properties": props,
        "seconds": args.seconds,
        "latency_samples": len(lat),
        "latencies_ms": [ns / 1e6 for ns in lat],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "raised": raised[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if layers is not None:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["exact_counts"] = {k: layers[k][0] for k in trace_mod.EXACT_COUNTS}
        spans_path = OUT / f"spans-{stem}.json"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {wl.name}: {wl.why}")
    print("environment " + json.dumps(env))
    print("input_properties " + json.dumps(props))
    print(f"latency samples {len(lat)}; attempted {attempted}; failed {failed}; "
          f"failed_ratio {failed / attempted}")
    for line in raised[:5]:
        print("raised " + line)
    for group in (e2e, layers or {}):
        for name, (value, unit) in group.items():
            print(f"{name} {value!r} {unit}")
    shown = layers if layers is not None else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
