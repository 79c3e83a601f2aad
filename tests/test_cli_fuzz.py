"""The CLI contract under fuzzed input: exit 0, 1 (usage) or 2 (data error,
reported as ``ErrorName: message``), and never a traceback."""

import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from msetsig import GEN_KINDS, Signal, errors, io as sio
from msetsig.circuit import NETLIST_KINDS
from msetsig.cli import main
from msetsig.ops import OPS

ERROR_NAMES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.MsetError)}
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    sio.write_csv(d / "f.csv", Signal(0.5, 0.0, [1.0, -2.0, 0.0, 3.5]))
    sio.write_csv(d / "g.csv", Signal(0.5, 0.0, [0.25, 2.0, -1.0, -3.0]))
    big = 1.7e308 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    sio.write_csv(d / "big_f.csv", Signal(0.5, 0.0, big))
    sio.write_csv(d / "big_g.csv", Signal(0.5, 0.0, -np.roll(big, 1)))
    return d


def run(argv):
    """Run the CLI in-process; return (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        names = re.findall(r"^(\w+): ", err, re.M)
        assert names and names[-1] in ERROR_NAMES, err


TOKENS = ["f", "g", "h", "sin", "abs", "sign", "tan", "1", "2.5", "1e999", "1e300",
          "(", ")", "-", "+", "*", "<>", "/\\", "\\/", "~", " ", "@"]
expr_texts = st.one_of(st.text(max_size=30), st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))


@settings(max_examples=200, deadline=None)
@given(expr_texts)
@example("+".join(["f"] * 5000))
@example("f" + "~" * 5000)
def test_expr_text_contract(workdir, text):
    check_contract(*run(["expr", f"--text={text}", "--bind", f"f={workdir / 'f.csv'}",
                         "--bind", f"g={workdir / 'g.csv'}", "--out", str(workdir / "e.csv")]))


@pytest.mark.parametrize("text", ["+".join(["f"] * 5000), "f" + "~" * 5000],
                         ids=["chain_5000", "complements_5000"])
def test_very_long_expression_is_a_data_error(workdir, text):
    proc = subprocess.run(
        [sys.executable, "-m", "msetsig.cli", "expr", f"--text={text}",
         "--bind", f"f={workdir / 'f.csv'}", "--out", str(workdir / "long.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("DepthExceeded:"), proc.stderr


numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr)
words = st.one_of(numbers, st.sampled_from(["", "x", "1e999", "-0", "nan", "# dt=1", ",", "1,2"]),
                  st.text(max_size=8))
headers = st.builds(lambda dt, t0, extra: f"# dt={dt} t0={t0}{extra}",
                    st.one_of(numbers, st.just("0.5")), st.one_of(numbers, st.just("0.0")),
                    st.sampled_from(["", " x", " k=1"]))
structured = st.builds(lambda head, rows: "\n".join([head, *rows]).encode("utf-8", "surrogatepass"),
                       st.one_of(headers, words), st.lists(words, max_size=8))
csv_bytes = st.one_of(st.binary(max_size=40), structured)


@settings(max_examples=200, deadline=None)
@given(a=csv_bytes, b=csv_bytes, name=st.sampled_from(list(OPS)), svg=st.booleans())
@example(a=b"# dt=1 t0=0\n1\n-1\n", b=b"# dt=1 t0=0\n1\n1\n", name="sign", svg=True)
@example(a=b"# dt=1 t0=0\n1e300\n1e300\n", b=b"# dt=1 t0=0\n1\n1\n", name="absolute", svg=True)
def test_op_file_contract(workdir, a, b, name, svg):
    (workdir / "a.csv").write_bytes(a)
    (workdir / "b.csv").write_bytes(b)
    argv = ["op", "--name", name, "--a", str(workdir / "a.csv"), "--b", str(workdir / "b.csv"),
            "--out", str(workdir / "o.csv")]
    check_contract(*run(argv + (["--svg", str(workdir / "o.svg")] if svg else [])))


def test_op_svg_of_an_overflowing_range_is_a_data_error(workdir):
    (workdir / "big.csv").write_bytes(b"# dt=1 t0=0\n1e308\n-1e308\n")
    code, err = run(["op", "--name", "union", "--a", str(workdir / "big.csv"), "--b", str(workdir / "big.csv"),
                     "--out", str(workdir / "o.csv"), "--svg", str(workdir / "o.svg")])
    assert code == 2 and err.startswith("BadParam:") and "Traceback" not in err, err


@settings(max_examples=200, deadline=None)
@given(a=csv_bytes, b=csv_bytes, kind=st.sampled_from(["common", "classic"]),
       mode=st.sampled_from(["full", "valid"]))
@example(a=b"# dt=1 t0=0\n1e308\n1e308\n", b=b"# dt=1 t0=0\n1e308\n", kind="classic", mode="full")
@example(a=b"# dt=1 t0=0\n-1\n-2\n", b=b"# dt=1 t0=0\n1\n", kind="common", mode="full")
def test_corr_file_contract(workdir, a, b, kind, mode):
    (workdir / "a.csv").write_bytes(a)
    (workdir / "b.csv").write_bytes(b)
    check_contract(*run(["corr", "--kind", kind, "--mode", mode, "--a", str(workdir / "a.csv"),
                         "--b", str(workdir / "b.csv"), "--out", str(workdir / "r.csv"), "--metrics"]))


floats_text = st.one_of(numbers, st.sampled_from(["1e999", "-0", "nan", "x", "", "0x10", "1_0"]))
ints_text = st.one_of(st.integers(-(10**30), 10**30).map(str), st.sampled_from(["2.0", "x", "", "1e3", "-0"]))
small_ints = st.one_of(st.integers(-5, 8).map(str), st.integers(-(10**30), -1).map(str), st.sampled_from(["2.0", "x"]))
env_seeds = st.one_of(st.none(), ints_text, st.text(st.characters(blacklist_categories=("Cs",),
                                                                   blacklist_characters="\x00"), max_size=6))


def run_with_seed_env(argv, env_seed):
    with mock.patch.dict(os.environ):
        os.environ.pop("MSET_SEED", None)
        if env_seed is not None:
            os.environ["MSET_SEED"] = env_seed
        return run(argv)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(GEN_KINDS), n=st.one_of(st.integers(-3, 64), st.integers(10**19, 10**40)).map(str),
       dt=floats_text, flags=st.dictionaries(st.sampled_from(["--amp", "--freq", "--phase", "--t0", "--center",
                                                             "--width"]), floats_text),
       seed=st.one_of(st.none(), ints_text), env_seed=env_seeds)
@example(kind="white_noise", n="4", dt="0.5", flags={}, seed="-1", env_seed=None)
@example(kind="white_noise", n="4", dt="0.5", flags={}, seed=None, env_seed="-3")
@example(kind="sine", n=str(10**21), dt="0.1", flags={}, seed=None, env_seed=None)
def test_gen_numeric_flags_contract(workdir, kind, n, dt, flags, seed, env_seed):
    argv = ["gen", "--kind", kind, "--n", n, f"--dt={dt}", "--out", str(workdir / "gen.csv")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    argv += [] if seed is None else [f"--seed={seed}"]
    check_contract(*run_with_seed_env(argv, env_seed))


sim_flags = st.fixed_dictionaries({}, optional={
    "--delay": st.one_of(small_ints, st.integers(10**19, 10**30).map(str)),
    "--glitch-amp": floats_text,
    "--glitch-w": st.one_of(small_ints, st.integers(10**19, 10**30).map(str)),
    "--lowpass": floats_text,
})


@settings(max_examples=150, deadline=None)
@given(netlist=st.sampled_from(NETLIST_KINDS), flags=sim_flags, compare=st.booleans(),
       oversample=st.one_of(st.none(), small_ints))
@example(netlist="absolute", flags={"--glitch-amp": "nan"}, compare=True, oversample=None)
def test_sim_numeric_flags_contract(workdir, netlist, flags, compare, oversample):
    argv = ["sim", "--netlist", netlist, "--a", str(workdir / "f.csv"), "--b", str(workdir / "g.csv"),
            "--trace", str(workdir / "trace.csv")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    argv += ["--compare"] if compare else []
    argv += [] if oversample is None else [f"--oversample={oversample}"]
    check_contract(*run(argv))


spreads = st.one_of(st.integers(-5, 5).map(str),
                    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda p: f"{p[0]}..{p[1]}"),
                    st.sampled_from(["1.5", "x", "..", "1..x"]))


@settings(max_examples=150, deadline=None)
@given(netlist=st.sampled_from(NETLIST_KINDS), flags=sim_flags, spread=spreads,
       seeds=st.one_of(st.none(), st.integers(-5, 4).map(str), st.sampled_from(["2.0", "x"])),
       seed=st.one_of(st.none(), ints_text))
@example(netlist="sign", flags={}, spread="0..2", seeds="2", seed="-1")
def test_sweep_numeric_flags_contract(workdir, netlist, flags, spread, seeds, seed):
    argv = ["sweep", "--netlist", netlist, "--a", str(workdir / "f.csv"), "--b", str(workdir / "g.csv"),
            f"--spread={spread}", "--out", str(workdir / "sweep.csv")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    argv += [] if seeds is None else [f"--seeds={seeds}"]
    argv += [] if seed is None else [f"--seed={seed}"]
    check_contract(*run(argv))


@pytest.mark.parametrize("argv,env_seed", [
    (["gen", "--kind", "white_noise", "--dt", "0.1", "--n", "4", "--seed", "-1", "--out", "{out}"], None),
    (["gen", "--kind", "white_noise", "--dt", "0.1", "--n", "4", "--out", "{out}"], "-3"),
    (["gen", "--kind", "sine", "--dt", "0.1", "--n", str(10**21), "--out", "{out}"], None),
    (["sweep", "--netlist", "sign", "--a", "{f}", "--spread", "0..1", "--seeds", "2", "--seed", "-1",
      "--out", "{out}"], None),
    (["sim", "--netlist", "sign", "--a", "{f}", "--glitch-amp", "nan", "--trace", "{out}"], None),
    (["sim", "--netlist", "sign", "--a", "{f}", "--oversample", str(10**19), "--trace", "{out}"], None),
    (["sim", "--netlist", "sign", "--a", "{f}", "--oversample", str(2**57), "--trace", "{out}"], None),
    (["gen", "--kind", "sine", "--dt", "0.1", "--n", str(2**59), "--out", "{out}"], None),
    (["gen", "--kind", "sine", "--dt", "0.1", "--n", str(2**63 - 1), "--out", "{out}"], None),
    (["sweep", "--netlist", "union", "--a", "{big_f}", "--b", "{big_g}", "--delay", "1", "--spread", "0..1",
      "--out", "{out}"], None),
], ids=["gen_seed", "mset_seed_env", "gen_n_unsizable", "sweep_seed", "sim_glitch_amp_nan",
        "sim_oversample_unsizable", "sim_oversample_unallocatable", "gen_n_unallocatable", "gen_n_int64_max",
        "sweep_error_overflows"])
def test_bad_number_is_bad_param(workdir, argv, env_seed):
    argv = [a.format(f=workdir / "f.csv", out=workdir / "bad.csv", big_f=workdir / "big_f.csv",
                     big_g=workdir / "big_g.csv") for a in argv]
    code, err = run_with_seed_env(argv, env_seed)
    assert code == 2 and err.startswith("BadParam:") and "Traceback" not in err, err


def test_huge_spread_sweeps(workdir):
    out = workdir / "huge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run(["sweep", "--netlist", "sign", "--a", str(workdir / "f.csv"), "--spread", str(10**20),
                         "--seeds", "1", "--out", str(out)])
    assert (code, err) == (0, "") and str(10**20) in out.read_text()
