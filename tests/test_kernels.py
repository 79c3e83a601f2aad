"""Both kernel backends must agree with each other and with a naive oracle.

The compiled kernel is also built from source by setup.py into a temporary
directory (with warnings as errors) and tested from there, so the C source
and its build flags are covered whether or not ``setup.py build_ext
--inplace`` has been run.
"""

import ast
import glob
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
import sysconfig
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import msetsig
from msetsig import _kernels
from msetsig._kernels import _fallback

try:
    from msetsig._kernels import _core
except ImportError:
    _core = None

BACKENDS = [_fallback] if _core is None else [_fallback, _core]
REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def naive_xcorr(f, g, lag_lo, lag_hi, common):
    out = []
    for k in range(lag_lo, lag_hi + 1):
        acc = 0.0
        for i in range(len(f)):
            j = i - k
            if 0 <= j < len(g):
                a, b = float(f[i]), float(g[j])
                if common:
                    sgn = (1.0 if a >= 0 else -1.0) * (1.0 if b >= 0 else -1.0)
                    acc += sgn * min(abs(a), abs(b))
                else:
                    acc += a * b
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize(
    "common, impl",
    [(common, impl) for impl in BACKENDS for common in (True, False) if common or impl is _fallback],
    ids=lambda v: v.__name__.rsplit(".", 1)[-1] if inspect.ismodule(v) else str(v),
)
def test_xcorr_matches_naive_oracle(common, impl):
    rng = np.random.default_rng(11)
    for _ in range(25):
        nf = int(rng.integers(1, 20))
        ng = int(rng.integers(1, 20))
        f = rng.standard_normal(nf)
        g = rng.standard_normal(ng)
        lag_lo, lag_hi = -(ng - 1), nf - 1
        # classic is np.correlate on every backend
        got = (impl.xcorr_common if common else _fallback.xcorr_classic)(f, g, lag_lo, lag_hi)
        want = naive_xcorr(f, g, lag_lo, lag_hi, common)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("common", [True, False])
def test_selected_xcorr_dispatches_on_kind(common):
    rng = np.random.default_rng(12)
    f, g = rng.standard_normal(30), rng.standard_normal(20)
    got = _kernels.xcorr(f, g, -25, 35, common)
    assert np.allclose(got, naive_xcorr(f, g, -25, 35, common), atol=1e-12, rtol=0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classic_windows_match_naive_oracle(data):
    # valid-mode windows (nf == ng, nf == ng + 1, ...) as well as windows
    # reaching past the full range on either side
    ng = data.draw(st.integers(1, 40))
    nf = ng + data.draw(st.integers(0, 3)) if data.draw(st.booleans()) else data.draw(st.integers(1, 40))
    f = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=nf, max_size=nf)))
    g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=ng, max_size=ng)))
    lag_lo = data.draw(st.integers(-(ng - 1) - 5, nf + 4))
    lag_hi = data.draw(st.integers(lag_lo - 1, nf - 1 + 5))
    got = _fallback.xcorr_classic(f, g, lag_lo, lag_hi)
    want = naive_xcorr(f, g, lag_lo, lag_hi, False)
    # rounding of any summation order is bounded by n·eps·sum|f·g|
    bound = 64 * np.finfo(np.float64).eps * naive_xcorr(np.abs(f), np.abs(g), lag_lo, lag_hi, False)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


def test_classic_computes_only_the_requested_lags(monkeypatch):
    # the valid window of nf == ng is one lag of ng products, not nf * ng;
    # the full window is nf * ng products, as np.correlate's own full mode
    seen = []
    real = np.correlate

    def spy(a, v, mode):
        seen.append((a.size, v.size, mode))
        return real(a, v, mode)

    monkeypatch.setattr(np, "correlate", spy)
    f, g = np.arange(1000.0), np.ones(1000)
    assert _fallback.xcorr_classic(f, g, 0, 0)[0] == np.sum(f)
    assert _fallback.xcorr_classic(f, g, -999, 999)[999] == np.sum(f)
    assert seen == [(1000, 1000, "valid"), (1000, 1000, "full")]


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_backends_agree():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(200)
    g = rng.standard_normal(150)
    lo, hi = -149, 199
    a = _core.xcorr_common(f, g, lo, hi)
    b = _fallback.xcorr_common(f, g, lo, hi)
    assert np.allclose(a, b, atol=1e-10, rtol=0)


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_lowpass_backends_identical():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 500))
    a, b = x.copy(), x.copy()
    assert _core.lowpass(a, 0.3) is a and _fallback.lowpass(b, 0.3) is b
    assert np.array_equal(a, b)


def test_lowpass_steps_toward_input():
    x = np.ones((2, 50))
    assert _kernels.lowpass(x, 0.25) is x
    for y in x:  # each row starts from rest
        assert y[0] == 0.25
        assert np.all(np.diff(y) > 0)
        assert y[-1] < 1.0
        assert y[-1] == pytest.approx(1.0, abs=1e-5)


def test_xcorr_no_overlap_is_zero():
    f = np.array([1.0, 2.0])
    g = np.array([3.0])
    out = _kernels.xcorr(f, g, -5, 5, True)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_backend_name_reported():
    assert msetsig.kernel_backend == _kernels.BACKEND
    assert msetsig.kernel_backend in ("compiled", "python")


def test_setup_py_compiles_exact_and_portable():
    # every bitwise claim needs unfused, unreassociated double sums, and a portable build
    # takes no -march, -mtune or -m<isa> flag
    with open(os.path.join(REPO, "setup.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [args] = [ast.literal_eval(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.keyword) and node.arg == "extra_compile_args"]
    assert "-O3" in args and "-ffp-contract=off" in args
    assert not [a for a in args if a.startswith("-m") or a in ("-ffast-math", "-Ofast")], args


@pytest.fixture(scope="module")
def fresh_core(tmp_path_factory):
    """_core.c built now by setup.py (its own flags plus -Wall -Wextra -Werror),
    loaded from the temporary build directory."""
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or no Python.h")
    out = tmp_path_factory.mktemp("core")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"),
         "--build-temp", str(out / "tmp")],
        cwd=REPO, env={**os.environ, "CFLAGS": "-Wall -Wextra -Werror"},
        capture_output=True, text=True, timeout=120,
    )
    # the extension is optional, so a failed compile still exits 0: look for the library
    built = glob.glob(str(out / "lib" / "msetsig" / "_kernels" / "_core*"))
    assert proc.returncode == 0 and len(built) == 1, proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("_core", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["fresh"] + ([] if _core is None else ["inplace"]))
def compiled(request):
    """Every compiled backend: the fresh build, and the in-place one if built."""
    return _core if request.param == "inplace" else request.getfixturevalue("fresh_core")


def bits(a):
    """Raw bit patterns, so that -0.0 differs from 0.0 and NaNs compare."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_signatures(impl):
    assert list(inspect.signature(impl.xcorr_common).parameters) == ["f", "g", "lag_lo", "lag_hi"]
    assert list(inspect.signature(impl.lowpass).parameters) == ["x", "alpha"]
    assert list(inspect.signature(impl.delayed_op).parameters) == ["op", "ins", "steps", "p", "q", "out"]


@pytest.mark.parametrize("impl", [_fallback, _kernels], ids=["fallback", "selected"])
def test_kernel_signatures(impl):
    assert_signatures(impl)
    # the benchmark's tracer binds these names with inspect.signature
    assert list(inspect.signature(_kernels.xcorr).parameters) == ["f", "g", "lag_lo", "lag_hi", "common"]


def test_compiled_signatures(compiled):
    assert_signatures(compiled)


samples = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
# whole numbers, from both sides of the compiled kernel's int16 limit of ±32,767
whole_samples = st.one_of(
    st.sampled_from([0.0, -0.0, 32767.0, -32767.0, 32768.0, -32768.0]),
    st.integers(-300, 300).map(float),
)


def sample_lists(data, kinds=("any", "whole", "whole but one")):
    """A list of any samples, of whole numbers, or of whole numbers but one fraction."""
    kind = data.draw(st.sampled_from(kinds))
    xs = data.draw(st.lists(samples if kind == "any" else whole_samples, min_size=1, max_size=70))
    if kind == "whole but one":
        xs[data.draw(st.integers(0, len(xs) - 1))] = data.draw(st.floats(-1e3, 1e3).filter(lambda v: v % 1))
    return xs


def lag_window(data, f, g):
    """Windows that reach past the full range -(len(g)-1) .. len(f)-1 on both sides."""
    lag_lo = data.draw(st.integers(-(len(g) - 1) - 17, len(f) + 8))
    return lag_lo, data.draw(st.integers(lag_lo - 1, len(f) - 1 + 17))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_xcorr_is_the_sequential_sum(compiled, data):
    f, g = sample_lists(data), sample_lists(data)
    lag_lo, lag_hi = lag_window(data, f, g)
    got = compiled.xcorr_common(np.array(f), np.array(g), lag_lo, lag_hi)
    assert np.array_equal(bits(got), bits(naive_xcorr(f, g, lag_lo, lag_hi, True)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compiled_xcorr_of_whole_numbers_is_the_fallback(compiled, data):
    f, g = sample_lists(data, ["whole"]), sample_lists(data, ["whole"])
    lag_lo, lag_hi = lag_window(data, f, g)
    got = compiled.xcorr_common(np.array(f), np.array(g), lag_lo, lag_hi)
    assert np.array_equal(bits(got), bits(_fallback.xcorr_common(np.array(f), np.array(g), lag_lo, lag_hi)))


@settings(max_examples=100, deadline=None)
@given(nf=st.integers(1, 600), ng=st.integers(1, 600), top=st.sampled_from([1, 127, 32767]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compiled_xcorr_of_long_whole_records_is_the_sequential_sum(compiled, nf, ng, top, seed, data):
    # records long enough for many vector iterations and a remainder, with zeros of both signs,
    # in both argument orders: lag k of (f, g) is lag -k of (g, f), the same terms in the same order
    rng = np.random.default_rng(seed)
    f, g = (rng.integers(-top, top + 1, n).astype(np.float64) for n in (nf, ng))
    for x in (f, g):
        x[rng.random(x.size) < 0.05] = -0.0
    lag_lo = data.draw(st.integers(-(ng - 1) - 3, nf + 2))
    lag_hi = data.draw(st.integers(lag_lo - 1, min(lag_lo + 40, nf + 2)))
    want = bits(naive_xcorr(f.tolist(), g.tolist(), lag_lo, lag_hi, True))
    assert np.array_equal(bits(compiled.xcorr_common(f, g, lag_lo, lag_hi)), want)
    assert np.array_equal(bits(compiled.xcorr_common(g, f, -lag_hi, -lag_lo)[::-1]), want)


@pytest.mark.parametrize("nf, ng", [(65_538, 65_538), (65_538, 65_600), (65_539, 65_539)])
def test_compiled_xcorr_of_full_scale_signs_is_the_sequential_sum(compiled, nf, ng):
    # +-32,767 only, where min(nf, ng) * 32,767 is just below 2^31 - 1 (the int32 sums) or just past it
    rng = np.random.default_rng(nf + ng)
    f, g = (rng.choice([-32767.0, 32767.0], n) for n in (nf, ng))
    want = bits(naive_xcorr(f.tolist(), g.tolist(), -2, 2, True))
    assert np.array_equal(bits(compiled.xcorr_common(f, g, -2, 2)), want)
    assert np.array_equal(bits(compiled.xcorr_common(g, f, -2, 2)[::-1]), want)


@pytest.mark.parametrize("n, want", [(65_538, 2_147_483_646.0), (65_540, 2_147_549_180.0)])
def test_compiled_xcorr_sums_beyond_int32_exactly(compiled, n, want):
    # n * 32,767 is just below 2^31 - 1, and then past it, where an int32 sum would wrap
    x = np.full(n, 32767.0)
    assert compiled.xcorr_common(x, x, 0, 0)[0] == want


@settings(max_examples=100, deadline=None)
@given(data=st.data(), alpha=st.floats(0.0, 1.0))
def test_compiled_lowpass_is_the_fallback(compiled, data, alpha):
    rows, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 70))
    x = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=rows * n, max_size=rows * n)),
                 dtype=np.float64).reshape(rows, n)
    a, b = x.copy(), x.copy()
    assert compiled.lowpass(a, alpha) is a and _fallback.lowpass(b, alpha) is b
    assert np.array_equal(bits(a), bits(b))
    for r in range(rows):  # each row is filtered on its own
        assert np.array_equal(bits(compiled.lowpass(x[r : r + 1].copy(), alpha)), bits(a[r : r + 1]))


def test_concurrent_calls_agree(compiled):
    rng = np.random.default_rng(13)
    f, g = rng.standard_normal(3000), rng.standard_normal(2000)
    fw, gw = np.rint(100 * f), np.rint(100 * g)  # whole numbers
    x, steps = rng.standard_normal((20, 2000)), rng.integers(0, 50, 20)
    calls = [  # each given the out of the thread that makes it
        lambda out: compiled.xcorr_common(f, g, -1999, 2999),
        lambda out: compiled.xcorr_common(fw, gw, -1999, 2999),
        lambda out: compiled.delayed_op("analog_switch", (x, x[:1], -x), steps, 0.0, 0.0, out),
    ]
    want = [bits(call(np.empty((20, 2000)))) for call in calls]
    results = []

    def work():
        out = np.empty((20, 2000))
        for _ in range(3):
            results.extend(np.array_equal(bits(call(out)), w) for call, w in zip(calls, want))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == [True] * 18


def test_compiled_rejects_arrays_it_cannot_read(compiled):
    good = np.arange(8.0)
    bad = [good[::2], good.astype(np.float32), np.arange(8), good.reshape(2, 4),
           good.astype(">f8"), [1.0, 2.0], 1.0]
    for arr in bad:
        with pytest.raises((TypeError, ValueError)):
            compiled.xcorr_common(arr, good, 0, 1)
        with pytest.raises((TypeError, ValueError)):
            compiled.xcorr_common(good, arr, 0, 1)
    # lowpass filters a writable C-contiguous (rows, n) float64 array in place
    read_only = np.zeros((2, 4))
    read_only.setflags(write=False)
    for arr in [*(arr for arr in bad if np.ndim(arr) != 2), good.copy(), read_only,
                np.zeros((2, 8))[:, ::2], np.zeros((2, 4), dtype=np.float32)]:
        with pytest.raises((TypeError, ValueError)):
            compiled.lowpass(arr, 0.5)
    with pytest.raises(ValueError):
        compiled.xcorr_common(good, good, 3, 1)
    assert compiled.xcorr_common(good, good, 3, 2).shape == (0,)
    rows, steps = good.reshape(2, 4), np.zeros(2, dtype=np.int64)
    bad_ops = [
        ("delay", (good,), steps),  # a 1-D input
        ("delay", (rows.astype(np.float32),), steps),
        ("delay", (np.arange(16.0).reshape(2, 8)[:, ::2],), steps),  # not contiguous
        ("delay", (np.zeros((3, 4)),), steps),  # neither 1 row nor len(steps) rows
        ("comparator", (rows, np.zeros((1, 5))), steps),  # inputs of two lengths
        ("delay", (rows,), steps.astype(np.int32)),
        ("delay", (rows,), steps.astype(np.float64)),
        ("delay", (rows,), steps.reshape(2, 1)),
        ("delay", (rows,), np.array([0, -1])),
        ("delay", (rows,), np.zeros(0, dtype=np.int64)),
        ("comparator", (rows,), steps),  # too few inputs
        ("delay", rows[0], steps),  # not a sequence of arrays
        ("integrator", (rows,), steps),
    ]
    for op, ins, delays in bad_ops:  # each with an out that the call could fill
        with pytest.raises((TypeError, ValueError)):
            compiled.delayed_op(op, ins, delays, 1.0, -1.0, np.zeros((len(delays), 4)))
    out = np.zeros((2, 4))
    assert compiled.delayed_op("delay", (rows,), steps, 1.0, -1.0, out) is out
    with pytest.raises(TypeError):  # out is required
        compiled.delayed_op("delay", (rows,), steps, 1.0, -1.0)


# the simulator's elementwise behaviours and their input counts
DELAYED_OPS = {"delay": 1, "inverting_amp": 1, "comparator": 2, "equivalence_gate": 2,
               "analog_switch": 3, "summer": 2}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_delayed_op_is_the_fallback(compiled, data):
    op = data.draw(st.sampled_from(list(DELAYED_OPS)))
    rows, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 12))
    # delays from 0 to past n, often all equal, with inputs of one row or len(steps) rows
    steps = data.draw(st.lists(st.integers(0, n + 3), min_size=rows, max_size=rows))
    steps = np.array(steps[:1] * rows if data.draw(st.booleans()) else steps, dtype=np.int64)
    ins = []
    for _ in range(DELAYED_OPS[op]):
        k = data.draw(st.sampled_from([1, rows]))
        ins.append(np.array(data.draw(st.lists(samples, min_size=k * n, max_size=k * n)), dtype=np.float64).reshape(k, n))
    # parameters near the float range's end make summer overflow to ±inf (and inf - inf)
    p, q = data.draw(samples), data.draw(samples)
    got = []
    # into buffers of leftover bits, one pattern each, which every sample overwrites
    for impl, leftover in ((compiled, 0x7FF4DEADBEEF0000), (_fallback, 0x7FF4FEEDFACE0000)):
        out = np.full((len(steps), n), leftover, dtype=np.uint64).view(np.float64)
        with np.errstate(all="ignore"):  # numpy warns where the sums overflow; C does not
            assert impl.delayed_op(op, ins, steps, p, q, out) is out
        got.append(bits(out))
    assert np.array_equal(*got)


def test_delayed_op_rejects_an_out_it_cannot_fill(compiled):
    buf, mem = np.arange(12.0), np.zeros(4, dtype=np.int64)
    x, y, steps = buf[:8].reshape(2, 4), np.ones((2, 4)), mem[:2]
    read_only = np.zeros((2, 4))
    read_only.setflags(write=False)
    bad = [
        ("delay", (x,), np.zeros((1, 4))),  # the result has two rows
        ("delay", (x,), np.zeros((2, 5))),
        ("delay", (x,), np.zeros(8)),
        ("delay", (x,), np.zeros((2, 4), dtype=np.float32)),
        ("delay", (x,), np.zeros((2, 4), dtype=">f8")),
        ("delay", (x,), np.zeros((2, 4), dtype=np.int64)),
        ("delay", (x,), [[0.0] * 4] * 2),
        ("delay", (x,), read_only),
        ("delay", (x,), np.zeros((2, 8))[:, ::2]),  # not contiguous
        ("delay", (x,), np.zeros((4, 2)).T),
        ("delay", (x,), x),
        ("delay", (x,), buf[4:].reshape(2, 4)),  # half of it is x
        ("comparator", (x, y), y),
        ("delay", (x[:, :2].copy(),), mem.view(np.float64).reshape(2, 2)),  # the steps
    ]
    for impl in (compiled, _fallback):
        for op, ins, out in bad:
            with pytest.raises((TypeError, ValueError)):
                impl.delayed_op(op, ins, steps, 1.0, -1.0, out)
        assert np.array_equal(buf, np.arange(12.0)) and np.array_equal(y, np.ones((2, 4)))
        assert not mem.any()
