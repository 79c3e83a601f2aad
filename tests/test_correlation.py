import math

import numpy as np
import pytest

from msetsig import (
    CorrelationResult,
    Signal,
    classic_functional,
    common_functional,
    common_product,
    complement,
    cross_correlate,
    errors,
    gen,
    jaccard_index,
    peak_metrics,
    shift,
)

from conftest import rand_signal

TWO_PI = 2.0 * np.pi


def sine_period(n=4096):
    return gen("sine", 1.0 / n, n)


def cosine_period(n=4096):
    return gen("cosine", 1.0 / n, n)


def sine_0_2pi(n=4096):
    # samples of sin(t) for t in [0, 2*pi)
    return gen("sine", TWO_PI / n, n, frequency=1.0 / TWO_PI)


class TestFunctionals:
    def test_sine_cosine_orthogonal_analog(self):
        assert abs(common_functional(sine_period(), cosine_period())) <= 1e-3

    def test_sine_self_functional(self):
        f = sine_0_2pi()
        assert common_functional(f, f) == pytest.approx(4.0, abs=1e-3)

    def test_constant_one(self):
        f = Signal(1e-3, 0.0, np.ones(1000))
        assert common_functional(f, f) == pytest.approx(1.0, abs=1e-6)

    def test_classic_orthogonality(self):
        assert abs(classic_functional(sine_period(), cosine_period())) <= 1e-3

    def test_classic_sine_energy(self):
        f = sine_0_2pi()
        assert classic_functional(f, f) == pytest.approx(np.pi, abs=1e-2)

    def test_classic_single_sample(self):
        assert classic_functional(Signal(1, 0, [2.0]), Signal(1, 0, [3.0])) == 6.0

    def test_non_bilinear(self):
        one = Signal(1e-3, 0.0, np.ones(1000))
        two = Signal(1e-3, 0.0, 2.0 * np.ones(1000))
        lhs = common_functional(two, one)
        rhs = 2.0 * common_functional(one, one)
        assert rhs - lhs >= 0.5

    def test_functional_bound(self, rng):
        for _ in range(10):
            f = rand_signal(rng, n=64)
            g = rand_signal(rng, n=64)
            bound = min(
                np.sum(np.abs(f.samples)) * f.dt, np.sum(np.abs(g.samples)) * g.dt
            )
            assert abs(common_functional(f, g)) <= bound + 1e-12


class TestCrossCorrelate:
    def test_zero_lag_is_functional(self, rng):
        f = rand_signal(rng, n=40)
        r = cross_correlate(f, f, "common", "full")
        at0 = r.values[np.nonzero(r.lags == 0)[0][0]]
        assert at0 == pytest.approx(common_functional(f, f), abs=1e-12)
        assert at0 == pytest.approx(np.sum(np.abs(f.samples)) * f.dt, abs=1e-12)

    def test_unit_impulse(self):
        f = Signal(0.25, 0.0, [0, 1, 0])
        r = cross_correlate(f, f, "common", "full")
        expect = np.zeros(5)
        expect[2] = 0.25
        assert np.allclose(r.values, expect, atol=1e-15)

    def test_quarter_period_phase_shift_kills_lag_zero(self):
        n = 4096
        f = sine_period(n)
        g = gen("sine", 1.0 / n, n, phase=np.pi / 2.0)
        r = cross_correlate(f, g, "common", "full")
        at0 = r.values[np.nonzero(r.lags == 0)[0][0]]
        assert abs(at0) <= 1e-3

    def test_full_lag_range(self):
        f = Signal(1.0, 0.0, np.ones(5))
        g = Signal(1.0, 0.0, np.ones(3))
        r = cross_correlate(f, g, "classic", "full")
        assert r.lags[0] == -2
        assert r.lags[-1] == 4
        assert len(r) == 7

    def test_valid_mode(self):
        f = Signal(1.0, 0.0, np.arange(6.0))
        g = Signal(1.0, 0.0, [1.0, 1.0])
        r = cross_correlate(f, g, "classic", "valid")
        assert r.lags.tolist() == [0, 1, 2, 3, 4]
        assert r.values.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_valid_needs_longer_first(self):
        f = Signal(1.0, 0.0, [1.0])
        g = Signal(1.0, 0.0, [1.0, 1.0])
        with pytest.raises(errors.BadMode):
            cross_correlate(f, g, "common", "valid")

    def test_dt_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            cross_correlate(Signal(1.0, 0, [1.0]), Signal(2.0, 0, [1.0]), "common")

    def test_unknown_kind_and_mode(self):
        f = Signal(1.0, 0, [1.0])
        with pytest.raises(errors.BadParam):
            cross_correlate(f, f, "fancy")
        with pytest.raises(errors.BadMode):
            cross_correlate(f, f, "common", "same")

    def test_flip_symmetry_exact(self, rng):
        for _ in range(10):
            f = rand_signal(rng, n=int(rng.integers(1, 30)))
            g = rand_signal(rng, n=int(rng.integers(1, 30)))
            ab = cross_correlate(f, g, "common", "full")
            ba = cross_correlate(g, f, "common", "full")
            assert np.array_equal(ab.values, ba.values[::-1])


class TestJaccard:
    def test_self_is_one(self, rng):
        f = rand_signal(rng, n=32)
        assert jaccard_index(f, f) == pytest.approx(1.0, abs=1e-12)
        assert jaccard_index(
            Signal(f.dt, f.t0, 3.7 * f.samples), Signal(f.dt, f.t0, 3.7 * f.samples)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_complement_is_minus_one(self, rng):
        f = rand_signal(rng, n=32)
        assert jaccard_index(f, complement(f)) == pytest.approx(-1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert jaccard_index(Signal(1, 0, [1, 0]), Signal(1, 0, [0, 1])) == 0.0

    def test_zero_denominator(self):
        z = Signal(1, 0, [0.0, 0.0])
        with pytest.raises(errors.DegenerateDenominator):
            jaccard_index(z, z)


class TestPeakMetrics:
    def test_unit_peak(self):
        r = CorrelationResult(1.0, np.arange(-2, 3), [0, 0, 1, 0, 0])
        m = peak_metrics(r)
        assert m.peak_lag == 0
        assert m.peak_value == 1.0
        assert m.half_width == pytest.approx(1.0)
        assert m.secondary_ratio == 0.0

    def test_flat_rejected(self):
        r = CorrelationResult(1.0, np.arange(3), [1.0, 1.0, 1.0])
        with pytest.raises(errors.FlatResult):
            peak_metrics(r)

    def test_rect_autocorrelation_width(self):
        w = 8
        rect = Signal(1.0, 0.0, np.concatenate([np.zeros(12), np.ones(w), np.zeros(12)]))
        m = peak_metrics(cross_correlate(rect, rect, "classic", "full"))
        assert abs(m.half_width - w) <= 1.0

    def test_clamped_when_level_never_crossed(self):
        r = CorrelationResult(1.0, np.arange(3), [0.8, 1.0, 0.9])
        m = peak_metrics(r)
        # level 0.5 is never reached on either side, so the width clamps
        assert m.half_width == 2.0
        assert m.secondary_ratio == 0.0

    def test_secondary_ratio(self):
        vals = [0.0, 0.6, 0.0, 1.0, 0.0, 0.3, 0.0]
        r = CorrelationResult(1.0, np.arange(-3, 4), vals)
        m = peak_metrics(r)
        assert m.peak_lag == 0
        assert m.secondary_ratio == pytest.approx(0.6)


class TestResultValidation:
    def test_lags_must_be_contiguous(self):
        with pytest.raises(errors.BadParam):
            CorrelationResult(1.0, np.array([0, 2]), np.array([1.0, 2.0]))

    def test_lags_that_wrap_around_int64_are_not_contiguous(self):
        with pytest.raises(errors.BadParam):
            CorrelationResult(1.0, np.array([2**63 - 1, -(2**63)]), np.array([1.0, 2.0]))

    def test_lengths_must_match(self):
        with pytest.raises(errors.BadParam):
            CorrelationResult(1.0, np.arange(3), np.array([1.0]))

    @pytest.mark.parametrize("lags", [[0.7, 1.2], [math.nan, 1.0], [2**70, 2**70 + 1], np.array([0.5, 1.5])])
    def test_lags_must_be_whole_numbers(self, lags):
        with pytest.raises(errors.BadParam):
            CorrelationResult(1.0, lags, [1.0, 2.0])

    def test_whole_float_lags_become_integers(self):
        r = CorrelationResult(1.0, [-1.0, 0.0], [1.0, 2.0])
        assert r.lags.dtype == np.int64 and r.lags.tolist() == [-1, 0]

    def test_values_finite(self):
        with pytest.raises(errors.BadParam):
            CorrelationResult(1.0, np.arange(1), np.array([np.nan]))
