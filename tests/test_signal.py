import math

import numpy as np
import pytest

from msetsig import Signal, SignSeries, errors, gen, shift

from conftest import rand_signal


class TestConstruction:
    def test_make_signal_echo(self):
        s = Signal(0.1, 0.0, [1, 2, 3])
        assert len(s) == 3
        assert s.dt == 0.1
        assert np.array_equal(s.samples, [1.0, 2.0, 3.0])

    def test_nan_sample_rejected_with_index(self):
        with pytest.raises(errors.NonFiniteSample) as exc:
            Signal(0.1, 0.0, [1.0, math.nan])
        assert exc.value.index == 1
        assert "index 1" in str(exc.value)

    def test_inf_sample_rejected(self):
        with pytest.raises(errors.NonFiniteSample):
            Signal(0.1, 0.0, [math.inf])

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(errors.NonPositiveDt):
            Signal(dt, 0.0, [1.0])

    def test_empty_rejected(self):
        with pytest.raises(errors.BadParam):
            Signal(0.1, 0.0, [])

    @pytest.mark.parametrize("dt, samples, error", [
        (1.0, ["a"], errors.BadParam),
        (1.0, [[1.0], [1.0, 2.0]], errors.BadParam),
        (1.0, np.array([1 + 2j, 3.0]), errors.BadParam),
        (1.0, [None, np.complex128(1j)], errors.BadParam),
        (1.0, [[1.0, 2.0]], errors.BadParam),
        ("x", [1.0], errors.NonPositiveDt),
        (np.complex128(1 + 2j), [1.0], errors.NonPositiveDt),
        (1.0, [None], errors.NonFiniteSample),
        ("1.0", [1.0], errors.NonPositiveDt),  # a string is not a number, although float() would read one
        (b"1.0", [1.0], errors.NonPositiveDt),
    ])
    def test_bad_input_raises_its_error(self, dt, samples, error):
        with pytest.raises(errors.MsetError) as exc:
            Signal(dt, 0.0, samples)
        assert type(exc.value) is error

    def test_samples_are_copied_and_frozen(self):
        src = np.array([1.0, 2.0])
        s = Signal(1.0, 0.0, src)
        src[0] = 99.0
        assert s.samples[0] == 1.0
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_times_axis(self):
        s = Signal(0.5, 2.0, [0, 0, 0])
        assert np.array_equal(s.times(), [2.0, 2.5, 3.0])


class TestSignSeries:
    def test_accepts_plus_minus_one(self):
        s = SignSeries(1.0, 0.0, [1.0, -1.0, 1.0])
        assert len(s) == 3

    def test_rejects_other_values(self):
        with pytest.raises(errors.BadParam):
            SignSeries(1.0, 0.0, [1.0, 0.5])

    def test_rejects_zero(self):
        with pytest.raises(errors.BadParam):
            SignSeries(1.0, 0.0, [0.0])


class TestGen:
    def test_sine_quarter_period(self):
        s = gen("sine", 0.25, 4)
        assert np.allclose(s.samples, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_cosine_quarter_period(self):
        s = gen("cosine", 0.25, 4)
        assert np.allclose(s.samples, [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_square_levels(self):
        s = gen("square", 0.25, 4, amplitude=2.0)
        assert set(np.abs(s.samples)) == {2.0}

    def test_noise_deterministic(self):
        a = gen("white_noise", 0.01, 64, seed=42)
        b = gen("white_noise", 0.01, 64, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = gen("white_noise", 0.01, 64, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_needs_seed(self):
        with pytest.raises(errors.BadParam):
            gen("white_noise", 0.01, 8)

    def test_pulses_peak_at_center(self):
        for kind in ("gaussian_pulse", "triangle_pulse"):
            s = gen(kind, 1.0, 101, center=50.0, width=10.0, amplitude=3.0)
            assert s.samples[50] == pytest.approx(3.0)
            assert np.argmax(s.samples) == 50

    def test_triangle_support(self):
        s = gen("triangle_pulse", 1.0, 101, center=50.0, width=10.0)
        assert s.samples[39] == 0.0
        assert s.samples[61] == 0.0
        assert s.samples[45] == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(errors.BadParam):
            gen("sawtooth", 0.1, 4)

    def test_generators_pure(self):
        a = gen("sine", 0.01, 100, frequency=3.0, phase=0.3)
        b = gen("sine", 0.01, 100, frequency=3.0, phase=0.3)
        assert np.array_equal(a.samples, b.samples)


class TestShift:
    def test_right(self):
        assert np.array_equal(shift(Signal(1, 0, [1, 2, 3]), 1).samples, [0, 1, 2])

    def test_identity(self):
        assert np.array_equal(shift(Signal(1, 0, [1, 2, 3]), 0).samples, [1, 2, 3])

    def test_left(self):
        assert np.array_equal(shift(Signal(1, 0, [1, 2, 3]), -1).samples, [2, 3, 0])

    def test_shift_past_end(self):
        assert np.array_equal(shift(Signal(1, 0, [1, 2]), 5).samples, [0, 0])

    def test_round_trip_keeps_inner_samples(self, rng):
        f = rand_signal(rng, n=50)
        for k in (3, -7):
            back = shift(shift(f, k), -k)
            if k > 0:
                assert np.array_equal(back.samples[: 50 - k], f.samples[: 50 - k])
            else:
                assert np.array_equal(back.samples[-k:], f.samples[-k:])
