"""The benchmark's own checks: failures are counted and exact counts repeat.

    python3 -m pytest perfbench -q

Each workload runs its real inputs and operations here, so the whole file
takes under a minute on two cores.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as trace_mod  # noqa: E402
from workloads import WORKLOADS, CircuitMc, CliPipeline, MatchAdc, MatchFloat  # noqa: E402


@pytest.fixture
def make(tmp_path):
    made = []

    def build(cls, seed=7):
        wl = cls(seed, tmp_path / f"{cls.name}-{seed}-{len(made)}")
        wl.setup()
        made.append(wl)
        return wl

    yield build
    for wl in made:
        wl.cleanup()


def run_ops(wl, n):
    lat, records, raised = run.run_phase(wl, n_ops=n)
    assert not raised
    return records


def test_corrupted_correlation_counts_as_failed(make):
    wl = make(MatchFloat)
    records = run_ops(wl, 2)
    case, results = records[1]
    kind, lags_key, values_key, peak_lag, peak_value = results[0]
    bad = wl.kept[values_key].copy()
    bad[7] += 1e-9 * np.max(np.abs(bad))
    records[1] = (case, [(kind, lags_key, wl.kept(bad), peak_lag, peak_value), results[1]])
    assert run.verdicts(wl, records + [None]) == [True, False, False]


def test_wrong_peak_lag_counts_as_failed(make):
    wl = make(MatchAdc)
    records = run_ops(wl, 2)
    case, lags_key, values_key, peak_lag = records[0]
    records[0] = (case, lags_key, values_key, peak_lag + 1)
    assert wl.check(records) == [False, True]


def test_circuit_numbers_off_the_pins_count_as_failed(make):
    wl = make(CircuitMc)
    glitchy = CircuitMc.POINTS.index((0.1, 0, 1, False))
    records = [wl.keep(i, wl.op(i)) for i in (0, glitchy)]
    assert wl.check(records) == [True, True]
    j, pair, exact, got, spreads = records[1]
    records[1] = (j, pair, exact, dict(got, noise_rms=got["noise_rms"] * (1 + 1e-9)), spreads)
    out_key, ref_key = records[0][2]
    wrong = wl.kept[out_key].copy()
    wrong[0] = np.nextafter(wrong[0], np.inf)
    records[0] = (records[0][0], records[0][1], (wl.kept(wrong), ref_key), *records[0][3:])
    assert wl.check(records) == [False, False]


def test_corrupted_cli_output_counts_as_failed(make):
    wl = make(CliPipeline)
    records = run_ops(wl, 2)  # gen, op
    assert wl.check(records) == [True, True]
    cmd, code, stdout, stderr, files = records[1]
    head, _, last = wl.kept[files["op.csv"]].rstrip(b"\n").rpartition(b"\n")
    data = head + b"\n" + repr(float(last) + 1e-6).encode() + b"\n"
    records[1] = (cmd, code, stdout, stderr, {"op.csv": wl.kept(data)})
    records.append((cmd, 2, stdout, "ShapeMismatch: x\n", files))
    assert wl.check(records) == [True, False, False]


def counts_and_shape(cls, seed, tmp_path):
    wl = cls(seed, tmp_path / f"{cls.name}-{seed}-{os.urandom(4).hex()}")
    try:
        wl.setup()
        tracer, _, records, raised = run.traced_phase(wl)
        assert not raised and all(run.verdicts(wl, records))
        layers = trace_mod.layer_metrics(tracer)
        counts = {k: layers[k][0] for k in trace_mod.EXACT_COUNTS}
        return counts, wl.properties(records)
    finally:
        wl.cleanup()


# Counts that depend on sizes and the operation mix only, not on sample values.
SHAPE_COUNTS = ("kernels.xcorr_common.pairs", "kernels.xcorr_classic.pairs", "kernels.lowpass.samples",
                "circuit.simulate.component_steps", "circuit.delay_sweep.sims", "dsl.evaluate.nodes")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat_and_seed_keeps_shape(name, tmp_path):
    cls = WORKLOADS[name]
    first, shape = counts_and_shape(cls, 11, tmp_path)
    again, shape_again = counts_and_shape(cls, 11, tmp_path)
    other, other_shape = counts_and_shape(cls, 12, tmp_path)
    assert first == again
    assert shape == shape_again == other_shape
    assert {k: first[k] for k in SHAPE_COUNTS} == {k: other[k] for k in SHAPE_COUNTS}
    assert any(first.values())
