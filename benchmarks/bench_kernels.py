"""Timing comparison of the compiled correlation kernels vs the numpy fallback.

Run as a script:

    python3 benchmarks/bench_kernels.py [--sizes 256,1024,4096] [--repeat 5]

Each row times a full-range common cross-correlation and a single-pole
low-pass pass over white noise of the given length, for whichever backends
are importable, and reports the best-of-repeat wall time per call.
"""

import argparse
import time

import numpy as np

from msetsig._kernels import _fallback

try:
    from msetsig._kernels import _core
except ImportError:
    _core = None


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_backend(mod, f, g, repeat):
    n = f.size
    t_corr = best_time(lambda: mod.xcorr_common(f, g, -(n - 1), n - 1), repeat)
    t_lp = best_time(lambda: mod.lowpass(f, 0.25), repeat)
    return t_corr, t_lp


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds:8.2f} s "


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="256,1024,4096",
                    help="comma-separated signal lengths")
    ap.add_argument("--repeat", type=int, default=5,
                    help="repetitions per measurement; best time wins")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = [("fallback", _fallback)]
    if _core is not None:
        backends.insert(0, ("compiled", _core))
    else:
        print("compiled backend not importable; timing fallback only")

    rng = np.random.default_rng(0)
    header = f"{'n':>6}  {'backend':<9} {'xcorr (full)':>14} {'lowpass':>14}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        rows = {}
        for name, mod in backends:
            t_corr, t_lp = bench_backend(mod, f, g, args.repeat)
            rows[name] = t_corr
            print(f"{n:>6}  {name:<9} {fmt(t_corr)} {fmt(t_lp)}")
        if len(rows) == 2:
            speedup = rows["fallback"] / rows["compiled"]
            print(f"{'':>6}  speedup   {speedup:>11.1f}x (xcorr)")
    if _core is not None:
        n = 512
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        a = _core.xcorr_common(f, g, -(n - 1), n - 1)
        b = _fallback.xcorr_common(f, g, -(n - 1), n - 1)
        print(f"\nbackend agreement: max |diff| = {np.max(np.abs(a - b)):.3g}")


if __name__ == "__main__":
    main()
