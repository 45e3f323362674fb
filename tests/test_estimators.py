"""Estimator checks against synthesized traces with known statistics."""

import dataclasses
import itertools
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csilab import estimators, synth
from csilab.dsp import FilterSpec
from csilab.errors import BandError, ConfigError, DcMissing, DegenerateSet
from csilab.estimators import (
    Spectra,
    csi_frequency_test,
    cutoff_sweep,
    filtered_violation,
    g2_curves,
    normalized_spectra,
    sweep_filters,
)
from csilab.scenarios import preset, preset_names
from csilab.synth import (
    AcquisitionConfig,
    TraceSet,
    apply_loss,
    quantize,
    synthesize,
    synthesize_stream,
)
from csilab.theory import CsdModel, ExcessNoiseSpec, SqueezeParams
from slow_reference import coherent_traces, split_and_detect


def g10_model(**kwargs):
    kwargs.setdefault("delay", 8e-9)
    kwargs.setdefault("eta", 0.8)
    kwargs.setdefault("excess", ExcessNoiseSpec(conj_level=3.0))
    return CsdModel(
        SqueezeParams.from_gain(10.0, alpha=100.0), 20e6, probe_dc=1.0, **kwargs
    )


@pytest.fixture(scope="module")
def acq500():
    return AcquisitionConfig(num_sets=500, samples_per_set=10000, rng_seed=71)


@pytest.fixture(scope="module")
def ts_g10(acq500):
    return synthesize(g10_model(), acq500)


BAND_12 = FilterSpec(f_hi=12e6, f_lo=5e5, order=10)
# every filter this module asks V for of sp_g10 or sp_coherent
G10_FILTERS = [None, BAND_12, FilterSpec(f_hi=5e6, f_lo=5e5, order=10),
               FilterSpec(f_hi=100e6, f_lo=5e5, order=10), *sweep_filters([2e6, 10e6, 30e6])]


@pytest.fixture(scope="module")
def sp_g10(ts_g10):
    return Spectra(ts_g10, G10_FILTERS)


@pytest.fixture(scope="module")
def sp_coherent(acq500):
    return Spectra(coherent_traces(acq500), [BAND_12])


def subset(ts, num_sets):
    return dataclasses.replace(
        ts,
        codes=ts.codes[:, :num_sets].copy(),
        acquisition=dataclasses.replace(ts.acquisition, num_sets=num_sets),
    )


class TestG2Curves:
    def test_cross_peak_sits_at_injected_delay(self, sp_g10):
        rep = g2_curves(sp_g10, tau_max=100e-9)
        tau_peak = rep.tau_grid[np.argmax(rep.g2_ab)]
        assert tau_peak == pytest.approx(8e-9, abs=2e-9)
        assert rep.delay == pytest.approx(8e-9, abs=1e-9)

    def test_autocorrelations_peak_at_zero(self, sp_g10):
        rep = g2_curves(sp_g10, tau_max=100e-9)
        for curve in (rep.g2_aa, rep.g2_bb):
            tau_peak = rep.tau_grid[np.argmax(curve)]
            assert abs(tau_peak) <= 2e-9
            assert curve[np.argmin(np.abs(rep.tau_grid))] > 1.0

    def test_curves_revert_to_one_at_long_lag(self, sp_g10):
        rep = g2_curves(sp_g10, tau_max=400e-9)
        far = np.abs(rep.tau_grid) > 300e-9
        for curve, sem in (
            (rep.g2_ab, rep.g2_ab_sem),
            (rep.g2_aa, rep.g2_aa_sem),
            (rep.g2_bb, rep.g2_bb_sem),
        ):
            resid = np.abs(curve[far] - 1.0) / sem[far]
            assert np.mean(resid < 4.0) > 0.95

    def test_deterministic(self, ts_g10):
        a, b = (Spectra(subset(ts_g10, 40), [None]) for _ in range(2))
        np.testing.assert_array_equal(g2_curves(a, tau_max=50e-9).g2_ab,
                                      g2_curves(b, tau_max=50e-9).g2_ab)
        assert filtered_violation(a, None)["v_mean"] == filtered_violation(b, None)["v_mean"]

    def test_report_internal_consistency(self, sp_g10):
        rep = filtered_violation(sp_g10, None)
        assert rep["num_degenerate"] == 0
        assert rep["v_pooled"] == pytest.approx(
            (rep["eps_aa"] + rep["eps_bb"]) / (2.0 * rep["eps_ab_peak"]), rel=1e-12
        )
        assert rep["v_sem"] == pytest.approx(
            rep["v_sigma"] / np.sqrt(rep["v_per_set"].size), rel=1e-12
        )
        assert rep["sigma_count"] == pytest.approx(
            abs(1.0 - rep["v_mean"]) / rep["v_sem"], rel=1e-12
        )
        assert rep["violated"] == (rep["v_mean"] < 1.0)

    def test_pooled_agrees_with_per_set_mean(self, sp_g10):
        rep = filtered_violation(sp_g10, None)
        assert abs(rep["v_pooled"] - rep["v_mean"]) <= rep["v_sigma"]

    def test_curves_need_no_lag_kernel(self, ts_g10, monkeypatch):
        """The curves are read off the lag sums the build took: no
        transform of any kind, and no V."""
        sp = Spectra(subset(ts_g10, 40))

        def refuse(*args, **kwargs):
            raise AssertionError("g2 curves need no transform and no V statistics")

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        monkeypatch.setattr(Spectra, "_violation_stats", refuse)
        g2_curves(sp, tau_max=50e-9)


    @pytest.mark.parametrize("tau_max, wraps", [(127e-9, False), (128e-9, True), (1e-6, True)])
    def test_lag_window_stops_before_lags_wrap(self, tau_max, wraps):
        """On n samples a lag past (n - 1) // 2 wraps onto a negative one:
        on 256-sample sets the curve at +256 ns would repeat the one at 0."""
        sp = Spectra(coherent_traces(AcquisitionConfig(num_sets=4, samples_per_set=256)))
        if wraps:
            with pytest.raises(ConfigError, match="tau_max"):
                g2_curves(sp, tau_max=tau_max)
        else:
            rep = g2_curves(sp, tau_max=tau_max)
            assert rep.tau_grid.size == 255
            assert rep.tau_grid[-1] == pytest.approx(127e-9)

    @pytest.mark.parametrize("tau_max", [np.nan, np.inf, -np.inf, 0.0, -1e-9])
    def test_tau_max_not_finite_and_positive_is_refused(self, tau_max):
        """A nan or infinite window cannot be counted in lags, and one of no
        positive length asks for no curve; neither may fall back to 4 lags."""
        sp = Spectra(coherent_traces(AcquisitionConfig(num_sets=4, samples_per_set=256)))
        with pytest.raises(ConfigError, match="tau_max must be finite and > 0"):
            g2_curves(sp, tau_max=tau_max)


class TestCoherentBaseline:
    def test_all_curves_flat_at_one(self, sp_coherent):
        rep = g2_curves(sp_coherent, tau_max=100e-9)
        for curve, sem in (
            (rep.g2_ab, rep.g2_ab_sem),
            (rep.g2_aa, rep.g2_aa_sem),
            (rep.g2_bb, rep.g2_bb_sem),
        ):
            resid = np.abs(curve - 1.0) / sem
            assert np.max(resid) < 5.0
            assert np.mean(resid < 3.0) > 0.95

    def test_no_delay_peak_reports_zero(self, sp_coherent):
        rep = g2_curves(sp_coherent, tau_max=50e-9)
        assert rep.delay == 0.0

    def test_total_noise_at_sql(self, sp_coherent):
        rep = normalized_spectra(sp_coherent, compensate=False)
        band = (rep.frequencies > 1e6) & (rep.frequencies < 300e6)
        assert np.mean(rep.s_diff_norm[band]) == pytest.approx(1.0, abs=0.01)
        assert rep.squeezing_db_max < 0.3


class TestThermalBeam:
    def test_gaussian_intensity_noise_gives_g2_of_two(self):
        # bright beam with normally ordered variance equal to dc^2 models
        # chaotic light in the high mean-photon-number limit, so the
        # zero-lag split autocorrelation lands at g2 = 2
        acq = AcquisitionConfig(
            num_sets=400, samples_per_set=8192, rng_seed=5, full_scale=3.0
        )
        rate = acq.sample_rate
        dc = 1.0
        q = 1e-10
        rng = np.random.default_rng(acq.rng_seed)
        n = acq.samples_per_set
        freqs = np.fft.rfftfreq(n, 1.0 / rate)
        shape = 1.0 / (1.0 + (freqs / 5e6) ** 4)
        shape[0] = 0.0
        scale = np.sqrt(n * rate / 2.0) * np.sqrt(
            shape / (np.sum(shape) * rate / n)
        )
        halves = []
        for _ in range(2):  # probe-like and conjugate-like beams
            z = rng.standard_normal((acq.num_sets, freqs.size, 2))
            spec = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0) * scale * dc
            mod = np.fft.irfft(spec, n=n, axis=1)
            shot = rng.normal(0.0, np.sqrt(2.0 * q * dc * rate / 2.0), mod.shape)
            parent = mod + shot
            h1, h2 = split_and_detect(parent, dc, acq, q, rng=rng)
            halves.extend([h1, h2])
        codes = np.stack([quantize(h, acq.adc_bits, acq.full_scale) for h in halves])
        ts = TraceSet(
            codes=codes,
            dc_means=np.full(4, dc / 2.0),
            acquisition=acq,
            provenance="thermal-test",
            charge_scale=q,
        )
        rep = g2_curves(Spectra(ts), tau_max=50e-9)
        i0 = np.argmin(np.abs(rep.tau_grid))
        assert rep.g2_aa[i0] == pytest.approx(2.0, abs=0.05)
        assert rep.g2_bb[i0] == pytest.approx(2.0, abs=0.05)
        # the two beams are independent, so the cross curve stays at 1
        assert np.all(np.abs(rep.g2_ab - 1.0) < 0.1)


class TestViolationFactor:
    def test_one_pass_matches_filter_by_filter(self, sp_g10):
        spec = BAND_12
        shared = sp_g10._violation_stats([None, spec])
        for stats, alone in zip(shared, (filtered_violation(sp_g10, None),
                                         filtered_violation(sp_g10, spec))):
            assert stats["v_mean"] == alone["v_mean"]
            assert stats["v_sigma"] == alone["v_sigma"]
            np.testing.assert_array_equal(stats["v_per_set"], alone["v_per_set"])

    def test_violation_needs_no_inverse_transform(self, ts_g10, monkeypatch):
        """Every eps of V is a Parseval sum the build took: V of a Spectra
        built for its filters takes no transform of any kind."""
        sweep = [f * 1e6 for f in range(1, 16)]
        sp = Spectra(subset(ts_g10, 40), [None, BAND_12, *sweep_filters(sweep)])

        def refuse(*args, **kwargs):
            raise AssertionError("V statistics need no transform")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        filtered_violation(sp, None)
        filtered_violation(sp, BAND_12)
        cutoff_sweep(sp, sweep)

    def test_sem_shrinks_with_set_count(self, ts_g10, sp_g10):
        sems = {}
        sigmas = {}
        for n in (50, 200, 500):
            sp = sp_g10 if n == 500 else Spectra(subset(ts_g10, n), [None])
            rep = filtered_violation(sp, None)
            sems[n] = rep["v_sem"]
            sigmas[n] = rep["v_sigma"]
        # per-set spread is a property of one set, not of the ensemble size
        assert sigmas[50] == pytest.approx(sigmas[500], rel=0.35)
        assert sigmas[200] == pytest.approx(sigmas[500], rel=0.25)
        # standard error follows 1/sqrt(num_sets)
        assert sems[50] / sems[500] == pytest.approx(np.sqrt(10.0), rel=0.4)
        assert sems[200] / sems[500] == pytest.approx(np.sqrt(2.5), rel=0.3)

    def test_subset_means_consistent(self, ts_g10, sp_g10):
        rep_all = filtered_violation(sp_g10, None)
        rep_50 = filtered_violation(Spectra(subset(ts_g10, 50), [None]), None)
        assert abs(rep_50["v_mean"] - rep_all["v_mean"]) < 5.0 * rep_50["v_sem"]

    def test_anticorrelated_beams_are_degenerate(self, ts_g10):
        ts = subset(ts_g10, 16)
        codes = ts.codes.copy()
        codes[2] = -codes[0]  # conjugate halves mirror the probe with flipped sign
        codes[3] = -codes[1]
        flipped = Spectra(dataclasses.replace(ts, codes=codes), [None])
        with pytest.raises(DegenerateSet):
            filtered_violation(flipped, None)
        # the curves need no positive peak: the cross curve dips below one
        rep = g2_curves(flipped)
        assert rep.g2_ab[np.argmin(np.abs(rep.tau_grid))] < 1.0

    def test_g2_curves_single_set_is_degenerate(self, ts_g10):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSet):
                g2_curves(Spectra(subset(ts_g10, 1)), tau_max=50e-9)

    def test_missing_dc_raises(self, ts_g10):
        broken = dataclasses.replace(ts_g10, dc_means=np.zeros(4))
        with pytest.raises(DcMissing):
            Spectra(broken)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dc_raises(self, ts_g10, bad):
        broken = dataclasses.replace(ts_g10, dc_means=np.array([1.0, bad, 1.0, 1.0]))
        with pytest.raises(DcMissing):
            Spectra(broken)

    @pytest.mark.parametrize("samples", [16, 64, 65, 66, estimators.MIN_SAMPLES - 1])
    def test_sets_too_short_for_the_delay_search_raise(self, samples):
        # a peak at the end of the n // 10 searched lags leaves 2 (n // 10) - 25
        # lags more than 25 samples from it, and the search needs 8
        assert estimators.MIN_SAMPLES == 170
        ts = coherent_traces(AcquisitionConfig(num_sets=4, samples_per_set=samples))
        with pytest.raises(ConfigError, match=f"{samples} samples per set") as err:
            Spectra(ts)
        assert "samples_per_set must be at least 170" in str(err.value)

    def test_shortest_accepted_set_gives_finite_v(self):
        acq = AcquisitionConfig(num_sets=8, samples_per_set=estimators.MIN_SAMPLES,
                                rng_seed=3)
        stats = filtered_violation(Spectra(synthesize(g10_model(), acq), [None]), None)
        assert np.isfinite(stats["v_mean"]) and np.isfinite(stats["v_sem"])


class TestModelAgreement:
    def test_compensation_wrap_shifts_v_by_the_lag_weighted_loss(self):
        """The conjugate is advanced by d samples around the circle of one
        set, so d of its samples meet unrelated probe samples.  The filtered
        lag-0 sum is a sum of lag-s products weighted by g(s) R(s), the
        filter's autocorrelation times the beams' cross-covariance, and at
        lag s the circle loses |s + d| pairs where delay 0 loses |s|.  So
        V rises from delay 0 to delay d by that weighted loss over n, well
        short of the d / n an n / (n - d) correction would take off."""
        spec = FilterSpec(f_hi=15e6, f_lo=5e5, order=10)
        n, d = 4000, 8
        acq = AcquisitionConfig(num_sets=1000, samples_per_set=n, rng_seed=11)
        v = [filtered_violation(Spectra(synthesize(g10_model(delay=delay), acq), [spec]),
                                spec)["v_per_set"]
             for delay in (0.0, d / acq.sample_rate)]
        shift = v[1] - v[0]
        se = shift.std(ddof=1) / np.sqrt(shift.size)

        f = np.fft.rfftfreq(n, d=1.0 / acq.sample_rate)
        _, _, cross = g10_model()._phased_parts(f, compensated=True)
        cross[0] = 0.0  # the DC bin of every set is removed
        weight = np.fft.irfft(spec.magnitude(f) ** 2, n=n) * np.fft.irfft(cross, n=n)
        lags = np.fft.fftfreq(n, d=1.0 / n)
        loss = np.sum(weight * (np.abs(lags + d) - np.abs(lags))) / np.sum(weight) / n
        predicted = v[0].mean() * loss

        assert shift.mean() > 3.0 * se
        assert abs(shift.mean() - predicted) < 3.0 * se
        assert v[0].mean() * d / n - shift.mean() > 3.0 * se

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_v_matches_model_on_the_estimator_grid(self, name):
        """The model integrates the |H|²-weighted densities over the rfft grid
        the estimator sums over; the measured V sits within 4 standard
        errors of it on every preset."""
        sc = preset(name)
        spec = sc.analysis.bandpass
        stats = filtered_violation(Spectra(synthesize(sc.model, sc.acquisition), [spec]), spec)
        f = np.fft.rfftfreq(sc.acquisition.samples_per_set, d=1.0 / sc.acquisition.sample_rate)
        predicted = sc.model.predicted_violation(
            f[0], f[-1], npts=f.size, weight=lambda x: spec.magnitude(x) ** 2)
        assert abs(stats["v_mean"] - predicted) / stats["v_sem"] < 4.0


class TestLossInvariance:
    @pytest.fixture(scope="class")
    def sp_lossy(self, ts_g10):
        return Spectra(apply_loss(ts_g10, 0.5, rng_seed=909), [None])

    def test_g2_curves_survive_extra_loss(self, sp_g10, sp_lossy):
        a = g2_curves(sp_g10, tau_max=100e-9)
        b = g2_curves(sp_lossy, tau_max=100e-9)
        for ca, sa, cb, sb in (
            (a.g2_ab, a.g2_ab_sem, b.g2_ab, b.g2_ab_sem),
            (a.g2_aa, a.g2_aa_sem, b.g2_aa, b.g2_aa_sem),
            (a.g2_bb, a.g2_bb_sem, b.g2_bb, b.g2_bb_sem),
        ):
            sigma = np.sqrt(sa**2 + sb**2)
            resid = np.abs(ca - cb) / sigma
            assert np.max(resid) < 5.0
            assert np.mean(resid < 3.0) > 0.97

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        extra_eta=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_g2_curves_invariant_over_loss_and_seeds(self, extra_eta, seed):
        """Extra loss scales each AC by the transmission and each DC alike, so
        no g2 curve may move by more than 6 combined SEMs at any lag.

        The bound is fixed from the false-alarm rate: 183 lag values per
        example, 20 examples and Student-t tails with 47 degrees of freedom
        (48 sets) give a union bound near 1e-3, even if the lossy curves
        were independent of the lossless ones."""
        acq = AcquisitionConfig(num_sets=48, samples_per_set=4096, rng_seed=seed)
        ts = synthesize(g10_model(), acq)
        a = g2_curves(Spectra(ts), tau_max=30e-9)
        b = g2_curves(Spectra(apply_loss(ts, extra_eta, rng_seed=seed + 1)), tau_max=30e-9)
        for name in ("g2_ab", "g2_aa", "g2_bb"):
            sem = np.hypot(getattr(a, name + "_sem"), getattr(b, name + "_sem"))
            assert np.max(np.abs(getattr(a, name) - getattr(b, name)) / sem) < 6.0

    def test_v_mean_survives_extra_loss(self, sp_g10, sp_lossy):
        a = filtered_violation(sp_g10, None)
        b = filtered_violation(sp_lossy, None)
        assert abs(a["v_mean"] - b["v_mean"]) < (
            3.0 * np.hypot(a["v_sem"], b["v_sem"]) + 0.01)


class TestSpectra:
    def test_sql_diff_is_pointwise_sum(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        sql_p, sql_c, sql_diff = rep.sql_p, rep.sql_c, rep.sql_diff
        np.testing.assert_allclose(sql_diff.power, sql_p.power + sql_c.power)
        assert sql_diff.num_averages == sql_p.num_averages

    def test_report_carries_delay_and_metrics(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        assert rep.compensated
        assert rep.delay == pytest.approx(8e-9, abs=1e-9)
        assert rep.squeezing_db_max > 3.0
        assert 0 < rep.squeezing_bandwidth < 20e6
        band = (rep.frequencies > 1e6) & (rep.frequencies < 3e6)
        assert np.mean(rep.s_diff_norm[band]) < 0.5

    def test_compensation_deepens_high_frequency_squeezing(self, sp_g10):
        comp = normalized_spectra(sp_g10, compensate=True)
        raw = normalized_spectra(sp_g10, compensate=False)
        sel = (comp.frequencies > 10e6) & (comp.frequencies < 15e6)
        assert np.mean(raw.s_diff_norm[sel]) > np.mean(comp.s_diff_norm[sel])
        assert raw.delay == 0.0

    def test_beam_spectra_sit_far_above_sql(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        band = (rep.frequencies > 1e6) & (rep.frequencies < 10e6)
        assert np.mean(rep.s_p_norm[band]) > 5.0
        assert np.mean(rep.s_c_norm[band]) > 5.0

    def test_band_outside_grid_raises(self, sp_g10):
        with pytest.raises(BandError):
            normalized_spectra(sp_g10, band=(500e3, 2e9))

    @pytest.mark.parametrize("band", [(15e6, 5e5), (1.00001e6, 1.00002e6)],
                             ids=["inverted", "between_bins"])
    def test_band_without_bins_raises(self, ts_g10, band):
        with pytest.raises(BandError, match="no frequency bin"):
            normalized_spectra(Spectra(subset(ts_g10, 8)), band=band)

    @pytest.mark.parametrize("smooth_hz", [np.nan, np.inf, -np.inf, -1.0])
    def test_smoothing_not_finite_and_non_negative_is_refused(self, sp_g10, smooth_hz):
        with pytest.raises(ConfigError, match="smooth_hz must be finite and >= 0"):
            normalized_spectra(sp_g10, smooth_hz=smooth_hz)


class TestCsiFrequencyTest:
    def test_quiet_band_flags_violation(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        lhs, rhs, classical = csi_frequency_test(rep, sp_g10, (5e5, 5e6))
        assert lhs < rhs
        assert not classical

    def test_wide_band_swamped_by_excess(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        lhs, rhs, classical = csi_frequency_test(rep, sp_g10, (5e5, 100e6))
        assert classical

    def test_verdict_matches_time_domain(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        for band_hi in (5e6, 100e6):
            spec = FilterSpec(f_hi=band_hi, f_lo=5e5, order=10)
            v_mean = filtered_violation(sp_g10, spec)["v_mean"]
            _, _, classical = csi_frequency_test(rep, sp_g10, (5e5, band_hi))
            assert (v_mean < 1.0) == (not classical)

    def test_band_outside_grid_raises(self, sp_g10):
        rep = normalized_spectra(sp_g10)
        with pytest.raises(BandError):
            csi_frequency_test(rep, sp_g10, (5e5, 2e9))

    def test_inverted_band_raises(self, ts_g10):
        sp = Spectra(subset(ts_g10, 8))
        with pytest.raises(BandError, match="no frequency bin"):
            csi_frequency_test(normalized_spectra(sp), sp, (5e6, 5e5))


class TestCutoffSweep:
    def test_violation_restored_below_excess_onset(self, sp_g10):
        rows = cutoff_sweep(sp_g10, [2e6, 10e6, 30e6])
        assert rows.shape == (3, 3)
        v = rows[:, 1]
        assert v[0] < 1.0
        assert v[2] > 1.0
        assert v[0] < v[1] < v[2]

    def test_empty_cutoff_list_raises(self, sp_g10):
        with pytest.raises(BandError):
            cutoff_sweep(sp_g10, [])


SWEEP_MHZ = [f * 1e6 for f in range(1, 16)]


def assert_identical(a, b):
    """Bitwise equality of estimator results: dicts, dataclasses, arrays, tuples."""
    if dataclasses.is_dataclass(a):
        a, b = dataclasses.asdict(a), dataclasses.asdict(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        np.testing.assert_array_equal(a, b, strict=True)


class TestSharedSpectra:
    @pytest.fixture(scope="class")
    def ts40(self, ts_g10):
        return subset(ts_g10, 40)

    def test_delay_estimated_once_per_spectra(self, ts40, monkeypatch):
        calls = []
        fit = estimators._delay_from_covariance

        def counted(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(estimators, "_delay_from_covariance", counted)
        sp = Spectra(ts40, [BAND_12, *sweep_filters([2e6, 10e6])])
        filtered_violation(sp, BAND_12)
        normalized_spectra(sp)
        g2_curves(sp, tau_max=50e-9)
        cutoff_sweep(sp, [2e6, 10e6])
        assert len(calls) == 1
        assert sp.delay == pytest.approx(8e-9, abs=1e-9)
        assert not sp.delay_fallback

    def test_fallback_carried_by_spectra(self, sp_coherent):
        assert (sp_coherent.delay, sp_coherent.delay_fallback) == (0.0, True)
        stats = filtered_violation(sp_coherent, BAND_12)
        assert stats["delay_fallback"]


def test_median_is_np_median():
    """The delay search's median equals np.median, which it replaces to
    keep numpy.ma out of the process, on odd and even sizes, with and
    without ties, and leaves its input as it was."""
    rng = np.random.default_rng(3)
    for size in [*range(1, 60), 1949, 1950, 1951]:
        for x in (rng.standard_normal(size), rng.integers(0, 4, size).astype(float)):
            kept = x.copy()
            assert estimators._median(x) == np.median(x)
            assert np.array_equal(x, kept)


def _every_estimate(ts):
    """Results of each chunked estimator on a Spectra of ts built for its
    filters, and of the sweep on one built without; a raised DegenerateSet
    stands in for a result."""
    band = FilterSpec(f_hi=12e6, f_lo=2e6, order=10)
    sp = Spectra(ts, [None, band, *sweep_filters([4e6, 12e6, 30e6])])
    calls = [
        lambda: tuple(filtered_violation(sp, spec) for spec in (None, band)),
        lambda: cutoff_sweep(sp, [4e6, 12e6, 30e6]),
        lambda: cutoff_sweep(Spectra(ts), [4e6, 12e6, 30e6]),
        lambda: g2_curves(sp, tau_max=40e-9),
        lambda: normalized_spectra(sp),
        lambda: normalized_spectra(sp, compensate=False),
    ]
    results = [(sp.delay, sp.delay_fallback)]
    for call in calls:
        try:
            results.append(call())
        except DegenerateSet as exc:
            results.append(str(exc))
    return results


def _sweep_peak(sp) -> int:
    """tracemalloc peak, in bytes, of a 15-cutoff sweep of sp, once a
    1-cutoff sweep has left numpy's first-call set-up out."""
    cutoff_sweep(sp, SWEEP_MHZ[:1])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cutoff_sweep(sp, SWEEP_MHZ)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestChunkedAnalysis:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        num_sets=st.integers(min_value=2, max_value=40),
        samples=st.sampled_from([1024, 1537, 8500]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        chunk=st.sampled_from([1, 3, 16, None]),
        threads=st.sampled_from([None, "1", "2", "3"]),
    )
    def test_results_independent_of_chunk_and_threads(self, num_sets, samples, seed,
                                                     chunk, threads):
        """Sets are transformed, summed and correlated a chunk at a time,
        and the chunks of a block are shared by CSILAB_THREADS threads;
        neither the chunk size nor the thread count, drawn here for the
        Spectra builds as well as for synthesis, may change a single bit
        of any estimate."""
        acq = AcquisitionConfig(num_sets=num_sets, samples_per_set=samples, rng_seed=seed)
        ts = synthesize(g10_model(), acq)
        interval = sys.getswitchinterval()
        with mock.patch.dict(os.environ):
            os.environ.pop("CSILAB_THREADS", None)
            with (mock.patch.object(estimators, "_CHUNK", num_sets + 1),
                  mock.patch.object(synth, "BLOCK_SETS", num_sets + 1)):
                whole = _every_estimate(ts)  # one chunk: the ensemble at once
            if threads is not None:
                os.environ["CSILAB_THREADS"] = threads
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            try:
                with (mock.patch.object(estimators, "_CHUNK", chunk or num_sets + 1),
                      mock.patch.object(synth, "BLOCK_SETS", chunk or num_sets + 1)):
                    chunked = _every_estimate(ts)
            finally:
                sys.setswitchinterval(interval)
        assert_identical(tuple(chunked), tuple(whole))

    def test_spectra_store_at_most_three_floats_per_filter_per_set(self, ts_g10):
        """Per set and declared filter a Spectra keeps eps_aa, eps_bb and
        eps_ab, and no row of any set: what it stores grows by at most
        3 x filters x 8 B per set."""
        filters = [FilterSpec(f_hi=15e6), *sweep_filters(SWEEP_MHZ)]

        def stored(num_sets):
            sp = Spectra(subset(ts_g10, num_sets), filters)
            return sum(v.nbytes for v in vars(sp).values() if isinstance(v, np.ndarray))

        assert (stored(32) - stored(16)) / 16 <= 3 * len(set(filters)) * 8

    def test_sweep_allocates_less_than_one_ensemble_spectrum(self, ts_g10, monkeypatch):
        """A 15-cutoff sweep on a Spectra built without filters builds one
        for its cutoffs over the same sets, a chunk at a time, which keeps
        three floats per set and cutoff: its peak stays below one complex
        (sets, bins) array."""
        monkeypatch.delenv("CSILAB_THREADS", raising=False)
        sp = Spectra(subset(ts_g10, 64))
        assert _sweep_peak(sp) < 64 * (sp.n // 2 + 1) * np.dtype(complex).itemsize  # 5.12 MB

    def test_sweep_of_declared_cutoffs_reads_the_stored_eps(self, ts_g10, monkeypatch):
        """A 15-cutoff sweep on a Spectra built for its cutoffs transforms
        nothing and allocates less than one complex row of the rfft grid:
        only each cutoff's statistics, a few floats per set."""
        monkeypatch.delenv("CSILAB_THREADS", raising=False)
        sp = Spectra(subset(ts_g10, 64), sweep_filters(SWEEP_MHZ))
        cutoff_sweep(sp, SWEEP_MHZ[:1])  # leave numpy's first-call set-up out

        def refuse(*args, **kwargs):
            raise AssertionError("a declared sweep needs no transform")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cutoff_sweep(sp, SWEEP_MHZ)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (sp.n // 2 + 1) * np.dtype(complex).itemsize  # 80 KB


class TestThreadedBuild:
    """The calling thread and a pool share each block's units of _CHUNK sets."""

    @pytest.mark.parametrize("cpus", [1, 2, 4, 64])
    def test_build_peak_stays_below_one_ensemble_spectrum_on_any_cpu_count(
            self, ts_g10, monkeypatch, cpus):
        """The sweep of test_sweep_allocates_less_than_one_ensemble_spectrum,
        which builds a Spectra for its cutoffs, keeps the same 5.12 MB bound
        however many CPUs the process may run on: at most _UNITS_IN_FLIGHT
        threads take units, each with one unit's scratch."""
        pools = []

        class CountingPool(estimators.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.delenv("CSILAB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", CountingPool)
        sp = Spectra(subset(ts_g10, 64))
        peak = _sweep_peak(sp)
        assert 1 + max(pools, default=0) == min(cpus, estimators._UNITS_IN_FLIGHT)
        assert peak < 64 * (sp.n // 2 + 1) * np.dtype(complex).itemsize  # 5.12 MB

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_failing_unit_is_raised_and_frees_every_thread(self, ts_g10, monkeypatch,
                                                           threads):
        """An rfft that raises on its fifth call, in the first pass's second
        unit, fails the build with its own error.  A unit waiting for the
        failed unit's turn is woken, so the build ends within the join's
        timeout and leaves no thread behind."""
        monkeypatch.setenv("CSILAB_THREADS", threads)
        rfft, calls = np.fft.rfft, itertools.count(1)

        def fifth_fails(*args, **kwargs):
            if next(calls) == 5:
                raise FloatingPointError("fifth rfft")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", fifth_fails)
        before = set(threading.enumerate())
        raised = []

        def build():
            try:
                Spectra(subset(ts_g10, 40), [BAND_12])
            except FloatingPointError as exc:
                raised.append(exc)

        builder = threading.Thread(target=build, daemon=True)
        builder.start()
        builder.join(timeout=60)
        assert not builder.is_alive()
        assert [str(exc) for exc in raised] == ["fifth rfft"]
        assert set(threading.enumerate()) == before


class TestDeclaredFilters:
    """A Spectra built for its filters gives V for exactly those."""

    @pytest.fixture(scope="class", params=preset_names())
    def built(self, request):
        """(scenario, traces, filters, Spectra built for the bandpass and a
        1-15 MHz sweep) of one preset."""
        sc = preset(request.param)
        ts = synthesize(sc.model, dataclasses.replace(sc.acquisition, num_sets=24,
                                                      rng_seed=0xC07))
        a = sc.analysis.bandpass
        filters = [a, *sweep_filters(SWEEP_MHZ, a.f_lo, a.order)]
        return sc, ts, filters, Spectra(ts, filters)

    def test_v_is_the_same_built_alone_or_among_others(self, built):
        """V under a filter, and every other estimate, does not change by
        one bit with the filters the Spectra was built for, or when a
        Spectra built without filters builds one for it over its source."""
        sc, ts, filters, sp = built
        a = sc.analysis.bandpass
        wider, bare = Spectra(ts, [None, *reversed(filters)]), Spectra(ts)
        for spec in (a, filters[1], filters[8]):
            results = [(filtered_violation(x, spec), g2_curves(x, sc.analysis.tau_max),
                        normalized_spectra(x, band=sc.analysis.spectra_band))
                       for x in (sp, Spectra(ts, [spec]), wider, bare)]
            for other in results[1:]:
                assert_identical(other, results[0])
        assert_identical(cutoff_sweep(sp, SWEEP_MHZ, a.f_lo, a.order),
                         cutoff_sweep(bare, SWEEP_MHZ, a.f_lo, a.order))

    def test_undeclared_filter_is_refused_by_name(self, built):
        sc, ts, _, sp = built
        far = FilterSpec(f_hi=200e6, f_lo=sc.analysis.bandpass.f_lo)
        with pytest.raises(ConfigError, match=r"f_hi=200000000\.0.* was not declared"):
            filtered_violation(sp, far)
        with pytest.raises(ConfigError, match=r"f_hi=200000000\.0.* was not declared"):
            cutoff_sweep(sp, [5e6, 200e6], sc.analysis.bandpass.f_lo)
        with pytest.raises(ConfigError, match="the unfiltered V was not declared"):
            filtered_violation(sp, None)
        with pytest.raises(ConfigError, match="f_hi=5000000.0.* was not declared"):
            filtered_violation(Spectra(subset(ts, 4), []), FilterSpec(f_hi=5e6))

    def test_source_empty_on_its_second_pass_is_refused(self):
        """A source read again must yield every set again: one whose blocks
        come from an iterable that is empty the second time raises
        ConfigError, with or without declared filters, and leaves no eps
        unset."""
        acq = AcquisitionConfig(num_sets=8, samples_per_set=1024, rng_seed=4)
        ts = synthesize(g10_model(), acq)

        class FirstTimeOnly:
            def __init__(self):
                self.blocks = list(ts)

            def __call__(self):
                blocks, self.blocks = self.blocks, []
                return iter(blocks)

        with pytest.raises(ConfigError, match="stream ended after 0 of 8 sets"):
            Spectra(synth.TraceStream(ts.acquisition, ts.dc_means, FirstTimeOnly()),
                    [FilterSpec(f_hi=15e6)])
        sp = Spectra(synth.TraceStream(ts.acquisition, ts.dc_means, FirstTimeOnly()))
        with pytest.raises(ConfigError, match="stream ended after 0 of 8 sets"):
            filtered_violation(sp, FilterSpec(f_hi=15e6))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("filters", [None, [FilterSpec(f_hi=15e6), None]],
                             ids=["no_filters", "declared"])
    def test_synthesis_stream_serves_v_like_its_trace_set(self, monkeypatch, threads,
                                                          filters):
        """Each pass over a synthesis stream synthesizes its sets anew, so a
        Spectra built from it, with its filters or looking V up over its
        source, equals one built from the TraceSet of the same sets in
        every sum, every eps, the delay and every estimate."""
        monkeypatch.setenv("CSILAB_THREADS", threads)
        acq = AcquisitionConfig(num_sets=2 * synth.BLOCK_SETS + 3, samples_per_set=1024,
                                rng_seed=4)
        ts = synthesize(g10_model(), acq)
        streamed, whole = (Spectra(x, filters)
                           for x in (synthesize_stream(g10_model(), acq), ts))
        for name in ("_eps", "_power_sums", "_cross_sum", "_lag_sums"):
            assert np.array_equal(getattr(streamed, name), getattr(whole, name)), name
        assert (streamed.delay, streamed.delay_fallback) == (whole.delay, whole.delay_fallback)
        for spec in (FilterSpec(f_hi=15e6), None):
            assert_identical(filtered_violation(streamed, spec), filtered_violation(whole, spec))
        assert_identical(normalized_spectra(streamed), normalized_spectra(whole))
        assert_identical(g2_curves(streamed, 30e-9), g2_curves(whole, 30e-9))
