"""Tests for PSD estimation, the bandpass filter and delay handling."""

import numpy as np
import pytest

from csilab.dsp import (
    FilterSpec,
    butterworth_bandpass,
    compensate_delay,
    cross_covariance,
    estimate_delay,
    psd_estimate,
)
from csilab.errors import NoPeak, SpecError
from csilab.synth import AcquisitionConfig, coherent_traces

RATE = 1e9


class TestPsd:
    def test_parseval_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 2048))
        psd = psd_estimate(x, RATE)
        var = np.mean([np.var(row) for row in x])
        assert np.isclose(np.sum(psd.power) * psd.df, var, rtol=1e-10)

    def test_white_noise_level_and_flatness(self):
        """sigma^2 = 1 white noise -> one-sided level 2/R within 3% at 500 avg."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((500, 4096))
        psd = psd_estimate(x, RATE)
        level = 2.0 / RATE
        # overall level from the full band
        assert np.isclose(np.mean(psd.power[1:]), level, rtol=0.01)
        # flatness judged on 16-bin blocks (single bins scatter ~1/sqrt(500))
        blocks = psd.power[1 : 1 + 2048].reshape(-1, 16).mean(axis=1)
        assert np.all(np.abs(blocks / level - 1.0) < 0.03)

    def test_sinusoid_line_power(self):
        n = 8192
        t = np.arange(n) / RATE
        f0 = 40 * RATE / n  # exactly on a bin
        amp = 0.7
        x = amp * np.sin(2 * np.pi * f0 * t)
        psd = psd_estimate(x, RATE)
        k = int(round(f0 * n / RATE))
        assert np.isclose(psd.power[k] * psd.df, amp**2 / 2.0, rtol=1e-9)
        assert psd.num_averages == 1

    def test_accepts_object_with_sample_rate(self):
        class Acq:
            sample_rate = RATE

        x = np.zeros((2, 64))
        psd = psd_estimate(x, Acq())
        assert np.isclose(psd.frequencies[-1], RATE / 2, rtol=1e-12)


class TestButterworth:
    SPEC = FilterSpec(f_hi=15e6, f_lo=500e3, order=10)

    def sine_gain(self, freq, spec=SPEC):
        # n chosen so 500 kHz and 15 MHz land exactly on bins (df = 10 kHz)
        n = 100000
        t = np.arange(n) / RATE
        f0 = round(freq * n / RATE) * RATE / n
        x = np.sin(2 * np.pi * f0 * t)
        y = butterworth_bandpass(x, spec, RATE)
        return np.sqrt(np.mean(y**2) / np.mean(x**2)), f0

    def test_midband_unity(self):
        g, _ = self.sine_gain(np.sqrt(500e3 * 15e6))
        assert abs(g - 1.0) < 1e-3

    @pytest.mark.parametrize("edge", [500e3, 15e6])
    def test_edges_at_minus_three_db(self, edge):
        g, _ = self.sine_gain(edge)
        assert abs(20 * np.log10(g) + 3.0) < 0.01

    def test_stopband_attenuation(self):
        g, _ = self.sine_gain(30e6)
        assert 20 * np.log10(g) < -55.0

    def test_passband_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4096))
        once = butterworth_bandpass(x, self.SPEC, RATE)
        twice = butterworth_bandpass(once, self.SPEC, RATE)
        dev1 = np.sqrt(np.mean((once - x) ** 2))
        dev2 = np.sqrt(np.mean((twice - once) ** 2))
        assert dev2 <= 2.0 * dev1

    def test_zero_phase_no_peak_shift(self):
        """Filtering must not move a correlation peak (no group delay)."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8192))
        shift = 12
        y = np.roll(x, shift, axis=1)
        spec = FilterSpec(f_hi=200e6, f_lo=1e6, order=10)
        xf = butterworth_bandpass(x, spec, RATE)
        yf = butterworth_bandpass(y, spec, RATE)
        d = estimate_delay(xf, yf, RATE)
        assert abs(d - shift / RATE) < 0.2 / RATE

    def test_invalid_specs(self):
        with pytest.raises(SpecError):
            FilterSpec(f_hi=1e6, f_lo=2e6)
        with pytest.raises(SpecError):
            FilterSpec(f_hi=15e6, order=3)
        with pytest.raises(SpecError):
            FilterSpec(f_hi=15e6, order=0)
        with pytest.raises(SpecError):
            butterworth_bandpass(np.zeros(64), FilterSpec(f_hi=600e6), RATE)


class TestDelay:
    def make_pair(self, delay_s, nsets=20, n=10000, seed=3, snr_noise=0.0):
        """Band-limited common noise on both channels, one delayed."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((nsets, n + 200))
        spec = FilterSpec(f_hi=40e6, f_lo=100e3, order=10)
        base = butterworth_bandpass(base, spec, RATE)
        probe = base[:, 100 : 100 + n].copy()
        conj = compensate_delay(base, -delay_s, RATE)[:, 100 : 100 + n].copy()
        if snr_noise:
            probe = probe + snr_noise * rng.standard_normal(probe.shape)
            conj = conj + snr_noise * rng.standard_normal(conj.shape)
        return probe, conj

    def test_identical_traces_zero(self):
        p, _ = self.make_pair(0.0)
        assert abs(estimate_delay(p, p, RATE)) < 1e-12

    @pytest.mark.parametrize("delay_ns", [8.0, 13.0])
    def test_recovers_injected_delay(self, delay_ns):
        p, c = self.make_pair(delay_ns * 1e-9, snr_noise=0.5)
        d = estimate_delay(p, c, RATE)
        assert abs(d - delay_ns * 1e-9) < 1e-9

    def test_sub_sample_resolution(self):
        p, c = self.make_pair(8.4e-9, snr_noise=0.2)
        d = estimate_delay(p, c, RATE)
        assert abs(d - 8.4e-9) < 0.2e-9

    def test_unbiased_over_seeds(self):
        """Mean estimate error over many draws stays below 0.1 ns."""
        errs = []
        for seed in range(40):
            p, c = self.make_pair(8e-9, nsets=4, seed=seed, snr_noise=0.5)
            errs.append(estimate_delay(p, c, RATE) - 8e-9)
        assert abs(np.mean(errs)) < 0.1e-9

    def test_no_peak_on_independent_noise(self):
        rng = np.random.default_rng(16)
        with pytest.raises(NoPeak):
            estimate_delay(
                rng.standard_normal((10, 4096)),
                rng.standard_normal((10, 4096)),
                RATE,
                max_lag=64,
            )

    @pytest.mark.parametrize("samples", [4096, 10000])
    @pytest.mark.parametrize("seed", range(12))
    def test_no_peak_on_coherent_beams(self, samples, seed):
        """The largest of up to ~2000 background lags is not a peak.

        On uncorrelated beams the noise maximum over the searched lags
        reaches 3-4 background rms, so the bar must grow with the lag count.
        """
        ts = coherent_traces(
            AcquisitionConfig(num_sets=24, samples_per_set=samples, rng_seed=seed)
        )
        with pytest.raises(NoPeak):
            estimate_delay(ts.ac("p1") + ts.ac("p2"), ts.ac("c1") + ts.ac("c2"), RATE)

    def test_compensation_round_trip(self):
        # odd length: no Nyquist bin, so the fractional shift is lossless
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 4095))
        d = 7.3e-9
        back = compensate_delay(compensate_delay(x, d, RATE), -d, RATE)
        assert np.sqrt(np.mean((back - x) ** 2)) < 1e-9

    def test_even_length_round_trip_drops_only_nyquist(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((5, 4096))
        spec_in = np.fft.rfft(x, axis=-1)
        spec_in[:, -1] = 0.0
        x = np.fft.irfft(spec_in, n=4096, axis=-1)
        d = 7.3e-9
        back = compensate_delay(compensate_delay(x, d, RATE), -d, RATE)
        assert np.sqrt(np.mean((back - x) ** 2)) < 1e-9

    def test_compensation_aligns_lagged_pair(self):
        p, c = self.make_pair(8e-9)
        aligned = compensate_delay(c, 8e-9, RATE)
        # after alignment the covariance peak sits at lag zero
        lags, cov = cross_covariance(p, aligned, max_lag=50)
        assert lags[int(np.argmax(cov))] == 0

    def test_cross_covariance_shapes_and_symmetry(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((6, 2048))
        lags, cov = cross_covariance(x, x, max_lag=64)
        assert lags.size == cov.size == 129
        i0 = int(np.argmax(cov))
        assert lags[i0] == 0
        assert np.allclose(cov, cov[::-1], atol=1e-12)  # autocovariance is even
