import numpy as np
import pytest

from msetsig import (
    CorrelationResult,
    Signal,
    SignSeries,
    cross_correlate,
    errors,
    read_correlation_csv,
    read_csv,
    sign_fn,
    write_csv,
)
from msetsig.circuit import build_netlist, simulate

from conftest import rand_signal


def test_signal_round_trip(tmp_path, rng):
    f = rand_signal(rng, n=100, dt=0.0017, t0=-0.3)
    p = tmp_path / "f.csv"
    write_csv(p, f)
    back = read_csv(p)
    assert back.dt == f.dt
    assert back.t0 == f.t0
    assert len(back) == 100
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12


def test_round_trip_is_exact(tmp_path, rng):
    f = rand_signal(rng, n=64, dt=1.0 / 3.0)
    p = tmp_path / "f.csv"
    write_csv(p, f)
    back = read_csv(p)
    assert np.array_equal(back.samples, f.samples)
    assert back.dt == f.dt


def test_sign_series_written_as_signal(tmp_path):
    s = sign_fn(Signal(0.5, 0.0, [3.0, -1.0, 0.0]))
    p = tmp_path / "s.csv"
    write_csv(p, s)
    back = read_csv(p)
    assert back.samples.tolist() == [1.0, -1.0, 1.0]
    # the values stay convertible to a sign series
    SignSeries(back.dt, back.t0, back.samples)


def test_header_missing_dt(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# t0=0.0\n1.0\n")
    with pytest.raises(errors.ParseError) as exc:
        read_csv(p)
    assert "dt" in str(exc.value)


def test_missing_header_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(errors.ParseError):
        read_csv(p)


def test_non_numeric_cell_cites_line(tmp_path):
    p = tmp_path / "bad.csv"
    rows = ["# dt=0.1 t0=0.0"] + ["1.0"] * 5 + ["oops", "2.0"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(errors.ParseError) as exc:
        read_csv(p)
    assert exc.value.line == 7
    assert "line 7" in str(exc.value)


def test_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(errors.ParseError):
        read_csv(p)


def test_header_only(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("# dt=0.1 t0=0.0\n")
    with pytest.raises(errors.ParseError):
        read_csv(p)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(errors.IoError):
        read_csv(tmp_path / "nope.csv")


def test_correlation_round_trip(tmp_path, rng):
    f = rand_signal(rng, n=20, dt=0.25)
    g = rand_signal(rng, n=10, dt=0.25)
    r = cross_correlate(f, g, "common", "full")
    p = tmp_path / "r.csv"
    write_csv(p, r)
    back = read_correlation_csv(p)
    assert back.dt == r.dt
    assert np.array_equal(back.lags, r.lags)
    assert np.array_equal(back.values, r.values)


def test_correlation_file_shape(tmp_path):
    r = CorrelationResult(0.5, np.arange(-1, 2), [1.0, 2.0, 3.0])
    p = tmp_path / "r.csv"
    write_csv(p, r)
    lines = p.read_text().splitlines()
    assert lines[0] == "# dt=0.5"
    assert lines[1] == "-1,1.0"
    assert len(lines) == 4


def test_correlation_bad_row(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("# dt=0.5\n0,1.0\n1\n")
    with pytest.raises(errors.ParseError) as exc:
        read_correlation_csv(p)
    assert exc.value.line == 3


@pytest.mark.parametrize("text,line", [
    ("# dt=-1\n0,1.0\n", 1),
    ("# dt=nan\n0,1.0\n", 1),
    ("# dt=0.5\n0,1.0\nnan,2.0\n", 3),
    ("# dt=0.5\ninf,1.0\n", 2),
    ("# dt=0.5\n-inf,1.0\n", 2),
    ("# dt=0.5\n1e300,1.0\n", 2),
], ids=["dt_negative", "dt_nan", "lag_nan", "lag_inf", "lag_minus_inf", "lag_1e300"])
def test_correlation_bad_dt_or_lag_cites_line(tmp_path, text, line):
    p = tmp_path / "r.csv"
    p.write_text(text)
    with pytest.raises(errors.ParseError) as exc:
        read_correlation_csv(p)
    assert exc.value.line == line


def test_simtrace_csv(tmp_path):
    net = build_netlist("absolute")
    f = Signal(0.1, 0.0, [1.0, -2.0, 3.0])
    trace = simulate(net, {"f": f})
    p = tmp_path / "t.csv"
    write_csv(p, trace)
    lines = p.read_text().splitlines()
    assert lines[0].split(",") == ["f", "c1", "a1", "out"]
    assert len(lines) == 4
    out_col = lines[0].split(",").index("out")
    got = [float(line.split(",")[out_col]) for line in lines[1:]]
    assert got == [1.0, 2.0, 3.0]


def test_unserializable_type(tmp_path):
    with pytest.raises(errors.IoError):
        write_csv(tmp_path / "x.csv", object())


def test_lf_line_endings(tmp_path, rng):
    p = tmp_path / "f.csv"
    write_csv(p, rand_signal(rng, n=5))
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
