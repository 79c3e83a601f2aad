"""The CLI contract under fuzzed input: exit 0, 1 (usage) or 2 (data error,
reported as ``ErrorName: message``), and never a traceback."""

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from msetsig import Signal, errors, io as sio
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
