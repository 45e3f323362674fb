"""The one-pass spectral estimators against the slow time-domain reference.

``slow_reference`` keeps the estimators that bandpass, delay-compensate
and correlate every channel in the time domain.  The spectral estimators
must reproduce them to 1e-12 relative.
"""

import dataclasses

import numpy as np
import pytest

import slow_reference as ref
from csilab.dsp import FilterSpec
from csilab.errors import DegenerateSet, SpecError
from csilab.estimators import (
    Spectra,
    cutoff_sweep,
    filtered_violation,
    g2_curves,
    normalized_spectra,
)
from csilab.scenarios import preset
from csilab.synth import AcquisitionConfig, coherent_traces, synthesize

RTOL = 1e-12
CUTOFFS = [1e6, 3e6, 6e6, 9e6, 15e6, 100e6]
STAT_KEYS = ("eps_aa", "eps_bb", "eps_ab_peak", "v_mean", "v_sigma", "v_sem",
             "sigma_count", "v_pooled", "v_per_set")


def close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=0.0)


@pytest.fixture(scope="module", params=["G10", "G2"])
def scenario_ts(request):
    """(scenario, traces, their Spectra), shared by the module's tests."""
    sc = preset(request.param)
    acq = dataclasses.replace(sc.acquisition, num_sets=24, rng_seed=0x5EED)
    ts = synthesize(sc.model, acq)
    return sc, ts, Spectra(ts)


@pytest.fixture(scope="module")
def ts_coherent():
    # independent beams: no cross-covariance peak, so the delay falls back to 0
    ts = coherent_traces(AcquisitionConfig(num_sets=24, samples_per_set=4096, rng_seed=0))
    return ts, Spectra(ts)


def test_cutoff_sweep_matches_reference(scenario_ts):
    _, ts, sp = scenario_ts
    close(cutoff_sweep(sp, CUTOFFS), ref.cutoff_sweep(ts, CUTOFFS))


def test_filtered_violation_matches_reference(scenario_ts):
    sc, ts, sp = scenario_ts
    fast = filtered_violation(sp, sc.analysis.bandpass)
    slow = ref.filtered_violation(ts, sc.analysis.bandpass)
    for key in STAT_KEYS + ("delay",):
        close(fast[key], slow[key])
    assert fast["num_degenerate"] == slow["num_degenerate"]
    assert fast["violated"] == slow["violated"]
    assert not fast["delay_fallback"]


def test_g2_curves_match_reference(scenario_ts):
    _, ts, sp = scenario_ts
    fast = g2_curves(sp, tau_max=60e-9)
    slow = ref.g2_curves(ts, tau_max=60e-9)
    for key in ("tau_grid", "g2_ab", "g2_aa", "g2_bb", "g2_ab_sem", "g2_aa_sem",
                "g2_bb_sem", "delay"):
        close(getattr(fast, key), slow[key])


def test_unfiltered_violation_matches_reference(scenario_ts):
    _, ts, sp = scenario_ts
    fast = filtered_violation(sp, None)
    slow = ref.g2_curves(ts, tau_max=60e-9)
    for key in STAT_KEYS + ("delay",):
        close(fast[key], slow[key])
    assert fast["num_degenerate"] == slow["num_degenerate"]
    assert fast["violated"] == slow["violated"]


@pytest.mark.parametrize("compensate", [True, False])
def test_normalized_spectra_match_reference(scenario_ts, compensate):
    _, ts, sp = scenario_ts
    fast = normalized_spectra(sp, compensate=compensate)
    slow = ref.normalized_spectra(ts, compensate=compensate)
    close(fast.frequencies, slow["frequencies"])
    close(fast.delay, slow["delay"])
    close(fast.sql_p.power[1:], slow["sql_p"][1:])
    close(fast.sql_c.power[1:], slow["sql_c"][1:])
    for key in ("s_p_norm", "s_c_norm", "s_diff_norm"):
        close(getattr(fast, key)[1:], slow[key][1:])
        # the mean-removed DC bin is exactly empty, so its ratio is undefined
        assert np.isnan(getattr(fast, key)[0])


def test_no_peak_falls_back_to_zero_delay(ts_coherent):
    ts, sp = ts_coherent
    spec = FilterSpec(f_hi=15e6)
    fast = filtered_violation(sp, spec)
    slow = ref.filtered_violation(ts, spec)
    assert fast["delay_fallback"]
    assert fast["delay"] == slow["delay"] == 0.0
    for key in STAT_KEYS:
        close(fast[key], slow[key])
    close(cutoff_sweep(sp, [5e6, 15e6]), ref.cutoff_sweep(ts, [5e6, 15e6]))


def test_degenerate_sets_raise_like_reference(scenario_ts):
    _, ts, _ = scenario_ts
    codes = ts.codes[:, :8].copy()
    codes[2] = -codes[0]  # conjugate halves mirror the probe with flipped sign
    codes[3] = -codes[1]
    flipped = dataclasses.replace(
        ts, codes=codes,
        acquisition=dataclasses.replace(ts.acquisition, num_sets=8),
    )
    spec = FilterSpec(f_hi=15e6)
    with pytest.raises(DegenerateSet):
        ref.filtered_violation(flipped, spec)
    sp = Spectra(flipped)
    with pytest.raises(DegenerateSet):
        filtered_violation(sp, spec)
    with pytest.raises(DegenerateSet):
        cutoff_sweep(sp, [15e6])


@pytest.mark.parametrize("f_hi", [500e6, 600e6])
def test_cutoff_at_or_above_nyquist_raises(scenario_ts, f_hi):
    _, ts, sp = scenario_ts
    with pytest.raises(SpecError):
        ref.cutoff_sweep(ts, [15e6, f_hi])
    with pytest.raises(SpecError):
        cutoff_sweep(sp, [15e6, f_hi])
    with pytest.raises(SpecError):
        filtered_violation(sp, FilterSpec(f_hi=f_hi))
