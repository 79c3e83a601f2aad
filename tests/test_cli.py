"""End-to-end command-line behavior, including exit codes and determinism."""

import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from msetsig import Signal, _kernels, gen, io as sio
from msetsig._kernels import _fallback
from msetsig.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_ok(argv):
    rc = main(argv)
    assert rc == 0
    return rc


def write_sig(path, sig):
    sio.write_csv(path, sig)
    return str(path)


@pytest.fixture
def sine_file(tmp_path):
    return write_sig(tmp_path / "sine.csv", gen("sine", 0.001, 256, frequency=4.0))


@pytest.fixture
def cosine_file(tmp_path):
    return write_sig(tmp_path / "cos.csv", gen("cosine", 0.001, 256, frequency=4.0))


class TestGen:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "g.csv"
        run_ok(["gen", "--kind", "sine", "--dt", "0.25", "--n", "8",
                "--freq", "0.5", "--out", str(out)])
        got = sio.read_csv(out)
        want = gen("sine", 0.25, 8, frequency=0.5)
        assert got.dt == want.dt and got.t0 == want.t0
        assert np.array_equal(got.samples, want.samples)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "64",
                "--seed", "5"]
        run_ok(args + ["--out", str(a)])
        run_ok(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_mset_seed_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("MSET_SEED", "5")
        run_ok(["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "32",
                "--out", str(a)])
        monkeypatch.delenv("MSET_SEED")
        run_ok(["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "32",
                "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("MSET_SEED", "9")
        run_ok(["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "32",
                "--seed", "5", "--out", str(a)])
        monkeypatch.setenv("MSET_SEED", "5")
        run_ok(["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "32",
                "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_mset_seed_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSET_SEED", "pony")
        rc = main(["gen", "--kind", "white_noise", "--dt", "0.01", "--n", "8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "MSET_SEED" in capsys.readouterr().err


class TestOp:
    def test_self_product_equals_absolute_bytes(self, tmp_path, sine_file):
        p1, p2 = tmp_path / "cp.csv", tmp_path / "abs.csv"
        run_ok(["op", "--name", "common_product", "--a", sine_file,
                "--b", sine_file, "--out", str(p1)])
        run_ok(["op", "--name", "absolute", "--a", sine_file, "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_double_complement_restores(self, tmp_path, sine_file):
        p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        run_ok(["op", "--name", "complement", "--a", sine_file, "--out", str(p1)])
        run_ok(["op", "--name", "complement", "--a", str(p1), "--out", str(p2)])
        assert p2.read_bytes() == open(sine_file, "rb").read()

    def test_binary_requires_b(self, tmp_path, sine_file):
        with pytest.raises(SystemExit) as exc:
            main(["op", "--name", "union", "--a", sine_file,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["op", "--name", "absolute", "--a", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("IoError:")


class TestCorr:
    def test_writes_result_and_metrics(self, tmp_path, capsys):
        f = write_sig(tmp_path / "f.csv",
                      Signal(1.0, 0.0, [0.0, 1.0, 0.0, 0.0]))
        g = write_sig(tmp_path / "g.csv", Signal(1.0, 0.0, [1.0]))
        out = tmp_path / "r.csv"
        run_ok(["corr", "--kind", "common", "--a", f, "--b", g,
                "--out", str(out), "--metrics"])
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(
            r"peak_lag=1 peak_value=1 half_width=\S+ secondary_ratio=\S+", line
        )
        r = sio.read_correlation_csv(out)
        assert r.lags.tolist() == [0, 1, 2, 3]
        assert r.values.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_valid_mode(self, tmp_path, sine_file, cosine_file):
        out = tmp_path / "r.csv"
        run_ok(["corr", "--kind", "classic", "--a", sine_file, "--b", cosine_file,
                "--mode", "valid", "--out", str(out)])
        r = sio.read_correlation_csv(out)
        assert r.lags.tolist() == [0]

    def test_dt_mismatch_is_data_error(self, tmp_path, capsys):
        f = write_sig(tmp_path / "f.csv", gen("sine", 0.001, 32))
        g = write_sig(tmp_path / "g.csv", gen("sine", 0.002, 32))
        rc = main(["corr", "--kind", "common", "--a", f, "--b", g,
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ShapeMismatch:")


class TestExpr:
    def test_matches_op_output(self, tmp_path, sine_file, cosine_file):
        p1, p2 = tmp_path / "e.csv", tmp_path / "o.csv"
        run_ok(["expr", "--text", "f <> g", "--bind", f"f={sine_file}",
                "--bind", f"g={cosine_file}", "--out", str(p1)])
        run_ok(["op", "--name", "common_product", "--a", sine_file,
                "--b", cosine_file, "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_unbound_variable_is_data_error(self, tmp_path, sine_file, capsys):
        rc = main(["expr", "--text", "f + q", "--bind", f"f={sine_file}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("UnboundVariable:")

    def test_syntax_error_is_data_error(self, tmp_path, sine_file, capsys):
        rc = main(["expr", "--text", "f + * g", "--bind", f"f={sine_file}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "offset" in capsys.readouterr().err

    def test_malformed_bind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["expr", "--text", "f", "--bind", "fnofile",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1


class TestSim:
    def test_compare_ideal_is_exact(self, sine_file, cosine_file, capsys, tmp_path):
        run_ok(["sim", "--netlist", "common_product", "--a", sine_file,
                "--b", cosine_file, "--compare"])
        assert capsys.readouterr().out.strip() == "rms_error=0 max_error=0"

    def test_compare_reports_noise_when_glitchy(self, sine_file, cosine_file, capsys):
        run_ok(["sim", "--netlist", "common_product", "--a", sine_file,
                "--b", cosine_file, "--glitch-amp", "0.2", "--compare"])
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(
            r"rms_error=\S+ max_error=\S+ noise_rms=\S+", line
        )

    def test_trace_file_lists_nodes(self, tmp_path, sine_file):
        trace = tmp_path / "t.csv"
        run_ok(["sim", "--netlist", "sign", "--a", sine_file,
                "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        assert lines[0] == "f,out"
        assert len(lines) == 1 + 256

    def test_lowpass_stage_moves_output(self, tmp_path, sine_file, capsys):
        run_ok(["sim", "--netlist", "absolute", "--a", sine_file,
                "--lowpass", "40.0", "--compare"])
        line = capsys.readouterr().out.strip()
        rms = float(line.split()[0].partition("=")[2])
        assert rms > 0.0

    def test_missing_b_is_usage_error(self, sine_file):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--netlist", "union", "--a", sine_file])
        assert exc.value.code == 1

    def test_length_mismatch_is_data_error(self, tmp_path, sine_file, capsys):
        short = write_sig(tmp_path / "s.csv", gen("sine", 0.001, 100))
        rc = main(["sim", "--netlist", "union", "--a", sine_file, "--b", short])
        assert rc == 2
        assert capsys.readouterr().err.startswith("MetadataMismatch:")


# blake2b digests of a glitchy, delayed, low-passed common-product run's trace
# file, sweep table and --compare line, as the simulator wrote them when its
# behaviours were numpy expressions; both kernel backends must keep them
PINNED_DIGESTS = {
    "trace": "6700fd9371a9d9314c6a475691bff13a",
    "sweep": "87ef5825f51f2ff38e0651bd15a68b64",
    "compare": "3aae23fb58f7808bc4794a4475e48cd7",
}


@pytest.mark.parametrize("backend", ["selected", "fallback"])
def test_sim_and_sweep_bytes_are_pinned(backend, tmp_path, capsys, monkeypatch):
    if backend == "fallback":
        monkeypatch.setattr(_kernels, "delayed_op", _fallback.delayed_op)
    i = np.arange(256)  # exact binary fractions, so that no input depends on the platform's libm
    a = write_sig(tmp_path / "a.csv", Signal(0.001, 0.0, (i * 37 % 23 - 11) / 4))
    b = write_sig(tmp_path / "b.csv", Signal(0.001, 0.0, (i * 29 % 19 - 9) / 8))
    common = ["--netlist", "common_product", "--a", a, "--b", b, "--delay", "1",
              "--glitch-amp", "0.2", "--glitch-w", "3", "--lowpass", "40"]
    run_ok(["sim", *common, "--oversample", "3", "--trace", str(tmp_path / "t.csv"), "--compare"])
    run_ok(["sweep", *common, "--spread", "0..3", "--seeds", "4", "--out", str(tmp_path / "s.csv")])
    files = {"trace": (tmp_path / "t.csv").read_bytes(), "sweep": (tmp_path / "s.csv").read_bytes(),
             "compare": capsys.readouterr().out.encode()}
    assert {k: hashlib.blake2b(v, digest_size=16).hexdigest() for k, v in files.items()} == PINNED_DIGESTS


class TestSweep:
    def test_table_format(self, tmp_path, sine_file):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--netlist", "sign", "--a", sine_file,
                "--spread", "0..2", "--seeds", "3", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "spread,mean_rms_error"
        assert len(lines) == 4
        assert lines[1] == "0,0.0"

    def test_single_spread(self, tmp_path, sine_file):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--netlist", "sign", "--a", sine_file,
                "--spread", "2", "--seeds", "2", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 2

    def test_reversed_range_is_usage_error(self, tmp_path, sine_file):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--netlist", "sign", "--a", sine_file,
                  "--spread", "5..1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1


class TestSvgAndVersion:
    def test_svg_written_and_deterministic(self, tmp_path, sine_file):
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(["op", "--name", "absolute", "--a", sine_file,
                "--out", str(o1), "--svg", str(s1)])
        run_ok(["op", "--name", "absolute", "--a", sine_file,
                "--out", str(o2), "--svg", str(s2)])
        text = s1.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert s1.read_bytes() == s2.read_bytes()

    def test_version_line(self, capsys):
        run_ok(["version"])
        out = capsys.readouterr().out
        assert out.startswith("msetsig ")
        assert "kernels:" in out

    def test_cli_import_loads_no_network_modules(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, msetsig.cli; print('urllib.request' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
        )
        assert proc.stdout.strip() == "False", proc.stderr

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_choice_is_usage_error(self, tmp_path, sine_file):
        with pytest.raises(SystemExit) as exc:
            main(["op", "--name", "frobnicate", "--a", sine_file,
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
