"""Tests for PSD estimation, the bandpass filter and delay handling.

The bandpass is checked through ``FilterSpec.magnitude``, the gain
``Spectra`` applies on the rfft grid, and the delay through
``Spectra(ts).delay`` on pairs packed into a 16-bit TraceSet.
"""

import numpy as np
import pytest

from csilab.dsp import FilterSpec, psd_estimate
from csilab.estimators import Spectra, _delay_ramp, filtered_violation
from csilab.errors import ConfigError, SpecError
from csilab.synth import AcquisitionConfig, TraceSet, quantize
from slow_reference import coherent_traces

RATE = 1e9


def bandpass(x, spec):
    """x filtered by the real gain |H| of spec on its rfft grid."""
    n = x.shape[-1]
    h = spec.magnitude(np.fft.rfftfreq(n, d=1.0 / RATE))
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * h, n=n, axis=-1)


def advance(x, delay):
    """x advanced in time by delay (a negative delay lags it)."""
    n = x.shape[-1]
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * _delay_ramp(n, RATE, delay), n=n, axis=-1)


def pack(probe, conj):
    """A 16-bit TraceSet whose halves are probe / 2 and conj / 2."""
    full_scale = 1.01 * max(np.abs(probe).max(), np.abs(conj).max()) / 2.0
    acq = AcquisitionConfig(
        num_sets=probe.shape[0], samples_per_set=probe.shape[1], adc_bits=16,
        full_scale=full_scale,
    )
    codes = np.stack(
        [quantize(x / 2.0, 16, full_scale) for x in (probe, probe, conj, conj)]
    )
    return TraceSet(codes=codes, dc_means=np.ones(4), acquisition=acq)


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

    @pytest.mark.parametrize("shape", [(2, 3, 64), ()])
    def test_traces_of_another_shape_are_refused(self, shape):
        with pytest.raises(ConfigError, match="1-D or 2-D"):
            psd_estimate(np.zeros(shape), RATE)


class TestButterworth:
    SPEC = FilterSpec(f_hi=15e6, f_lo=500e3, order=10)

    def sine_gain(self, freq, spec=SPEC):
        # n chosen so 500 kHz and 15 MHz land exactly on bins (df = 10 kHz);
        # a sine on a bin leaves the real rfft multiplier scaled by |H| there
        n = 100000
        f0 = round(freq * n / RATE) * RATE / n
        return float(spec.magnitude(f0))

    def test_midband_unity(self):
        g = self.sine_gain(np.sqrt(500e3 * 15e6))
        assert abs(g - 1.0) < 1e-3

    @pytest.mark.parametrize("edge", [500e3, 15e6])
    def test_edges_at_minus_three_db(self, edge):
        g = self.sine_gain(edge)
        assert abs(20 * np.log10(g) + 3.0) < 0.01

    def test_stopband_attenuation(self):
        g = self.sine_gain(30e6)
        assert 20 * np.log10(g) < -55.0

    def test_zero_phase_no_peak_shift(self):
        """Filtering must not move a correlation peak (no group delay)."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8192))
        shift = 12
        y = np.roll(x, shift, axis=1)
        spec = FilterSpec(f_hi=200e6, f_lo=1e6, order=10)
        sp = Spectra(pack(bandpass(x, spec), bandpass(y, spec)))
        assert not sp.delay_fallback
        assert abs(sp.delay - shift / RATE) < 0.2 / RATE

    def test_invalid_specs(self):
        with pytest.raises(SpecError):
            FilterSpec(f_hi=1e6, f_lo=2e6)
        with pytest.raises(SpecError):
            FilterSpec(f_hi=15e6, order=3)
        with pytest.raises(SpecError):
            FilterSpec(f_hi=15e6, order=0)
        sp = Spectra(coherent_traces(AcquisitionConfig(num_sets=2, samples_per_set=256)))
        with pytest.raises(SpecError):
            filtered_violation(sp, FilterSpec(f_hi=600e6))


class TestDelay:
    def make_pair(self, delay_s, nsets=20, n=10000, seed=3, snr_noise=0.0):
        """Band-limited common noise on both channels, one delayed."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((nsets, n + 200))
        spec = FilterSpec(f_hi=40e6, f_lo=100e3, order=10)
        base = bandpass(base, spec)
        probe = base[:, 100 : 100 + n].copy()
        conj = advance(base, -delay_s)[:, 100 : 100 + n].copy()
        if snr_noise:
            probe = probe + snr_noise * rng.standard_normal(probe.shape)
            conj = conj + snr_noise * rng.standard_normal(conj.shape)
        return probe, conj

    def delay(self, probe, conj):
        sp = Spectra(pack(probe, conj))
        assert not sp.delay_fallback
        return sp.delay

    def test_identical_traces_zero(self):
        p, _ = self.make_pair(0.0)
        assert abs(self.delay(p, p)) < 1e-12

    @pytest.mark.parametrize("delay_ns", [8.0, 13.0])
    def test_recovers_injected_delay(self, delay_ns):
        p, c = self.make_pair(delay_ns * 1e-9, snr_noise=0.5)
        assert abs(self.delay(p, c) - delay_ns * 1e-9) < 1e-9

    def test_sub_sample_resolution(self):
        p, c = self.make_pair(8.4e-9, snr_noise=0.2)
        assert abs(self.delay(p, c) - 8.4e-9) < 0.2e-9

    def test_unbiased_over_seeds(self):
        """Mean estimate error over many draws stays below 0.1 ns."""
        errs = []
        for seed in range(40):
            p, c = self.make_pair(8e-9, nsets=4, seed=seed, snr_noise=0.5)
            errs.append(self.delay(p, c) - 8e-9)
        assert abs(np.mean(errs)) < 0.1e-9

    def test_no_peak_on_independent_noise(self):
        rng = np.random.default_rng(16)
        sp = Spectra(pack(rng.standard_normal((10, 4096)), rng.standard_normal((10, 4096))))
        assert sp.delay_fallback
        assert sp.delay == 0.0

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
        sp = Spectra(ts)
        assert sp.delay_fallback
        assert sp.delay == 0.0

    def test_compensation_round_trip(self):
        # odd length: no Nyquist bin, so the fractional shift is lossless
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 4095))
        d = 7.3e-9
        ramp = _delay_ramp(x.shape[-1], RATE, d)
        np.testing.assert_allclose(np.abs(ramp), 1.0, rtol=1e-14)
        back = advance(advance(x, d), -d)
        assert np.sqrt(np.mean((back - x) ** 2)) < 1e-9

    def test_even_length_round_trip_drops_only_nyquist(self):
        """Advancing by d and then by -d restores every bin but one.

        The compensation ramp is pure phase.  Only the Nyquist bin of an
        even length is lost: a fractional shift cannot represent it, so the
        ramp zeroes it.
        """
        n = 4096
        d = 7.3e-9
        ramp = _delay_ramp(n, RATE, d)
        assert ramp.size == n // 2 + 1
        np.testing.assert_allclose(np.abs(ramp[:-1]), 1.0, rtol=1e-14)
        assert ramp[-1] == 0.0
        rng = np.random.default_rng(24)
        x = rng.standard_normal((5, n))
        spec_in = np.fft.rfft(x, axis=-1)
        spec_in[:, -1] = 0.0
        x = np.fft.irfft(spec_in, n=n, axis=-1)
        back = advance(advance(x, d), -d)
        assert np.sqrt(np.mean((back - x) ** 2)) < 1e-9

    def test_compensation_aligns_lagged_pair(self):
        p, c = self.make_pair(8e-9)
        sp = Spectra(pack(p, c))
        # after alignment the ensemble covariance peak of conj(P) C sits at lag zero
        aligned = sp._cross_sum * _delay_ramp(sp.n, sp.rate, sp.delay)
        cov = np.fft.irfft(aligned / sp.sets, n=sp.n)
        lags = np.arange(-50, 51)
        assert lags[int(np.argmax(cov[lags % sp.n]))] == 0
