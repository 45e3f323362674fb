"""Tests for PSD estimation, the bandpass filter, delay handling and the
squeezing readout.

The bandpass is checked through ``FilterSpec.magnitude``, the gain
``Spectra`` applies on the rfft grid, and the delay through
``Spectra(ts).delay`` on pairs packed into a 16-bit TraceSet.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from csilab import dsp, estimators
from csilab.dsp import FilterSpec, _squeezing, psd_estimate
from csilab.estimators import Spectra, _delay_ramp
from csilab.errors import ConfigError, SpecError
from csilab.synth import AcquisitionConfig, TraceSet, quantize
from csilab.theory import CsdModel
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

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_rate_must_be_finite_and_positive(self, rate):
        """0 divided by zero, -1 gave a negative frequency grid and NaN NaN power."""
        with pytest.raises(ConfigError, match="rate must be finite and > 0"):
            psd_estimate(np.ones((2, 64)), rate)

    @pytest.mark.parametrize("shape", [(1, 1), (1,), (0,), (0, 64)])
    def test_too_few_sets_or_samples_are_refused(self, shape):
        """One sample has no frequency step and zero sets no average."""
        with pytest.raises(ConfigError, match="at least one set of two samples"):
            psd_estimate(np.zeros(shape), RATE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_traces_are_refused(self, bad):
        x = np.zeros((2, 64))
        x[1, 5] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            psd_estimate(x, RATE)


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
        for order in (4.0, 10.5, True):
            with pytest.raises(SpecError, match="order must be an even integer"):
                FilterSpec(f_hi=15e6, order=order)
        ts = coherent_traces(AcquisitionConfig(num_sets=2, samples_per_set=256))
        with pytest.raises(SpecError):
            Spectra(ts, [FilterSpec(f_hi=600e6)])


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


class TestSqueezingReadout:
    F = np.linspace(1e6, 10e6, 10)

    @pytest.mark.parametrize("s_diff, depth, bandwidth", [
        ([2.0, 0.5, 0.5, 0.75, 1.25, 2.0, 0.5, 0.5, 0.5, 2.0], 3.0103, 4.5e6),
        ([2.0, 1.5, 1.0, 1.25, 40, 40, 40, 40, 40, 40], 0.0, 0.0),
        ([40.0] * 10, -16.0206, 0.0),
        ([2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], 3.0103, 10e6),
    ], ids=["first_up_crossing", "touches_the_sql", "no_squeezing", "never_crosses_back"])
    def test_depth_and_bandwidth_rules(self, s_diff, depth, bandwidth):
        """The depth is read at the minimum; the bandwidth is the first
        up-crossing of 1 past it, interpolated between bins, 0 when the
        minimum is not below 1 and the top of the grid when nothing crosses
        back."""
        got = _squeezing(self.F, np.array(s_diff))
        assert got == pytest.approx((depth, bandwidth), abs=1e-4)

    def test_smoothing_averages_width_bins_shrinking_at_the_edges(self):
        """A one-bin dip of 0.1 in a flat 1.3 is a 10 dB minimum raw, and
        the mean of three bins, 0.9, smoothed over three; a flat 0.5 stays
        0.5 up to both ends of the grid."""
        s = np.full(10, 1.3)
        s[5] = 0.1
        assert _squeezing(self.F, s)[0] == pytest.approx(10.0)
        assert _squeezing(self.F, s, 3)[0] == pytest.approx(-10.0 * np.log10(0.9))
        assert _squeezing(self.F, np.full(10, 0.5), 5) == (pytest.approx(3.0103, abs=1e-4), 10e6)

    def test_band_narrower_than_the_window_averages_every_bin(self):
        """Five bins smoothed over 15: each bin's window holds the whole
        band, so each reads its mean, 0.94, at its own frequency; nothing
        crosses back, so the bandwidth is the top of the grid."""
        f = np.linspace(0.6e6, 1e6, 5)
        got = _squeezing(f, np.array([0.7, 0.8, 0.9, 1.1, 1.2]), 15)
        assert got == (pytest.approx(-10.0 * np.log10(0.94)), 1e6)
        assert got[0] == pytest.approx(0.2687, abs=1e-4)

    def test_smoothing_window_is_centred_on_each_bin(self):
        """Each bin is the mean of the bins of the grid from width // 2
        below it to (width - 1) // 2 above it."""
        s = np.random.default_rng(3).uniform(0.3, 1.5, 300)
        for width in (2, 15, 300, 400):
            lo, hi = width // 2, (width - 1) // 2
            smooth = np.array([s[max(0, i - lo) : i + hi + 1].mean() for i in range(s.size)])
            f = np.linspace(1e6, 30e6, s.size)
            assert _squeezing(f, s, width)[0] == pytest.approx(-10.0 * np.log10(smooth.min()))


def test_one_squeezing_readout():
    """A measured and a predicted spectrum are read by one rule: in all of
    csilab the estimators' _smooth is gone, np.argmin appears only in
    dsp._squeezing, and normalized_spectra and
    CsdModel.predicted_squeezing both call it."""
    src = Path(dsp.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert not [
        module for module, tree in trees.items() for node in ast.walk(tree)
        if getattr(node, "name", getattr(node, "id", getattr(node, "attr", None))) == "_smooth"
    ]
    argmins = [
        (module, node.lineno) for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "argmin"
    ]
    lines, first = inspect.getsourcelines(dsp._squeezing)
    assert [module for module, _ in argmins] == ["dsp"]
    assert first <= argmins[0][1] < first + len(lines)
    for caller in (estimators.normalized_spectra, CsdModel.predicted_squeezing):
        tree = ast.parse(textwrap.dedent(inspect.getsource(caller)))
        calls = [node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert "_squeezing" in calls, caller.__qualname__
