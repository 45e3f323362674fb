"""Preset tables and INI overlay loading."""

import math

import numpy as np
import pytest

from csilab.dsp import FilterSpec
from csilab.errors import ConfigError
from csilab.scenarios import _DEFAULTS, AnalysisSettings, load_scenario, preset, preset_names


def test_preset_names():
    assert set(preset_names()) == {"G2", "G5", "G8", "G10", "G10_IDEAL"}


def test_g10_preset_values():
    sc = preset("G10")
    m = sc.model
    assert np.isclose(m.params.gain, 10.0, rtol=1e-12)
    assert m.bandwidth == 12e6
    assert m.delay == 8e-9
    assert m.eta == 0.8
    assert m.excess.conj_level == 1.7241
    assert m.excess.probe_level == 0.3
    assert m.excess.probe_onset_hz == 13e6
    assert m.excess.probe_order == 3
    assert m.delay_dispersion == 0.0
    acq = sc.acquisition
    assert acq.sample_rate == 1e9
    assert acq.num_sets == 500
    assert acq.samples_per_set == 10000
    assert acq.adc_bits == 9
    assert acq.full_scale is None
    a = sc.analysis
    assert (a.bandpass.f_lo, a.bandpass.f_hi) == (0.5e6, 15e6)
    assert a.bandpass.order == 10
    assert a.spectra_band == (0.5e6, 20e6)
    assert a.smooth_hz == 1.5e6


def test_g2_preset_values():
    sc = preset("G2")
    m = sc.model
    assert np.isclose(m.params.gain, 4.0, rtol=1e-12)
    assert m.delay == 13e-9
    assert m.excess.conj_level == 2.0
    assert m.excess.onset_hz == 6e6
    assert m.delay_dispersion == pytest.approx(51.2e-9, rel=1e-12)
    assert m.dispersion_corner_hz == pytest.approx(5.8e6, rel=1e-12)
    assert m.dispersion_cutoff_hz == pytest.approx(7.2e6, rel=1e-12)
    assert m.dispersion_order == 6
    # narrower smoothing: the squeezing band is only a few MHz wide here
    assert sc.analysis.smooth_hz == 1e6


def test_ideal_preset_is_quiet():
    sc = preset("G10_IDEAL")
    assert sc.model.eta == 1.0
    assert sc.model.technical.level == 0.0
    assert sc.model.delay == 0.0
    assert sc.analysis.bandpass.f_hi == 6e6


def test_preset_name_case_insensitive():
    assert preset("g10").name == "G10"


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("G3")


def test_scenarios_share_acquisition_defaults():
    seeds = {preset(n).acquisition.rng_seed for n in preset_names()}
    assert seeds == {0xC51F00D}


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


def test_load_overlays_preset(tmp_path):
    p = _write(
        tmp_path,
        """
        [scenario]
        preset = G2
        name = g2-short

        [model]
        delay_ns = 5.0   ; inline comment

        [acquisition]
        num_sets = 40
        rng_seed = 0x1234
        """,
    )
    sc = load_scenario(p)
    assert sc.name == "g2-short"
    assert sc.model.delay == 5e-9
    assert np.isclose(sc.model.params.gain, 4.0)  # rest of G2 kept
    assert sc.acquisition.num_sets == 40
    assert sc.acquisition.rng_seed == 0x1234


def test_load_defaults_to_g10(tmp_path):
    p = _write(tmp_path, "[analysis]\nf_hi_mhz = 10\n")
    sc = load_scenario(p)
    assert sc.name == "G10"
    assert sc.analysis.bandpass.f_hi == 10e6


def test_load_disable_flags(tmp_path):
    p = _write(
        tmp_path,
        """
        [scenario]
        preset = G2

        [model]
        dispersion_cutoff_mhz = 0
        delay_dispersion_ns = 0
        """,
    )
    sc = load_scenario(p)
    assert sc.model.dispersion_cutoff_hz is None
    assert sc.model.delay_dispersion == 0.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[model]\ngian = 10\n", "unknown key"),
        # options the source model no longer has
        ("[model]\ncarrier_detuning_mhz = 2\n", "unknown key 'carrier_detuning_mhz'"),
        ("[model]\nexcess_conj_cutoff_mhz = 9\n", "unknown key 'excess_conj_cutoff_mhz'"),
        ("[extras]\nx = 1\n", "unknown sections"),
        ("[scenario]\npreset = NOPE\n", "unknown preset"),
        ("[scenario]\nflavor = hot\n", "unknown \\[scenario\\] keys"),
        ("[model]\ngain = ten\n", "not a number"),
        ("[acquisition]\nnum_sets = 2.5\n", "not a number"),
        ("[analysis]\nspectra_hi_mhz = 0.3\n", "spectra band"),  # below f_lo
        ("[analysis]\nspectra_hi_mhz = 0.5\n", "spectra band"),  # equal to f_lo
        ("[analysis]\ntau_max_ns = 0\n", "tau_max"),
        ("[analysis]\nsmooth_mhz = -0.5\n", "smooth_hz"),
    ],
)
def test_load_rejects(tmp_path, text, fragment):
    p = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        load_scenario(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.ini")


# a new valid value for every INI key, as an overlay on the G2 preset (its
# dispersion is on, so the dispersion keys can move on their own)
_BUMPS = {
    ("model", "gain"): "5",
    ("model", "alpha"): "50",
    ("model", "probe_dc"): "2",
    ("model", "eta"): "0.6",
    ("model", "gain_bandwidth_mhz"): "10",
    ("model", "delay_ns"): "5",
    ("model", "technical_level"): "1",
    ("model", "technical_corner_khz"): "300",
    ("model", "excess_conj_level"): "1.5",
    ("model", "excess_probe_level"): "0.3",
    ("model", "excess_onset_mhz"): "4",
    ("model", "excess_order"): "3",
    ("model", "excess_probe_onset_mhz"): "10",
    ("model", "excess_probe_order"): "3",
    ("model", "delay_dispersion_ns"): "40",
    ("model", "dispersion_corner_mhz"): "5",
    ("model", "dispersion_order"): "4",
    ("model", "dispersion_cutoff_mhz"): "9",
    ("acquisition", "sample_rate_mhz"): "800",
    ("acquisition", "samples_per_set"): "4096",
    ("acquisition", "num_sets"): "40",
    ("acquisition", "adc_bits"): "12",
    ("acquisition", "full_scale"): "2.5",
    ("acquisition", "rng_seed"): "0x1234",
    ("analysis", "f_lo_mhz"): "1",
    ("analysis", "f_hi_mhz"): "12",
    ("analysis", "filter_order"): "8",
    ("analysis", "spectra_hi_mhz"): "18",
    ("analysis", "tau_max_ns"): "50",
    ("analysis", "smooth_mhz"): "2",
}


def test_bumps_cover_every_key():
    assert set(_BUMPS) == {(s, k) for s, table in _DEFAULTS.items() for k in table}
    assert len(_BUMPS) == 30


@pytest.mark.parametrize("section, key", list(_BUMPS), ids=[k for _, k in _BUMPS])
def test_every_key_reaches_the_scenario(tmp_path, section, key):
    plain = load_scenario(_write(tmp_path, "[scenario]\npreset = G2\n"))
    text = f"[scenario]\npreset = G2\n[{section}]\n{key} = {_BUMPS[section, key]}\n"
    assert load_scenario(_write(tmp_path, text)) != plain


def test_integer_keys_are_those_with_integer_defaults():
    ints = {k for table in _DEFAULTS.values() for k, v in table.items() if isinstance(v, int)}
    assert ints == {"excess_order", "excess_probe_order", "dispersion_order", "samples_per_set",
                    "num_sets", "adc_bits", "rng_seed", "filter_order"}


@pytest.mark.parametrize("kw", [
    dict(spectra_band=(-1.0, 20e6)),
    dict(spectra_band=(20e6, 5e5)),
    dict(spectra_band=(5e5, float("nan"))),
    dict(tau_max=-1e-9),
    dict(smooth_hz=float("nan")),
])
def test_analysis_settings_validate(kw):
    with pytest.raises(ConfigError):
        AnalysisSettings(bandpass=FilterSpec(f_hi=15e6), **{"spectra_band": (5e5, 20e6), **kw})


@pytest.mark.parametrize("kw", [
    dict(tau_max=math.inf),
    dict(smooth_hz=math.inf),
    dict(spectra_band=(0.0, math.inf)),
])
def test_analysis_settings_refuse_non_finite_values(kw):
    """The finiteness g2_curves and normalized_spectra ask of these values
    is checked when the settings are built, not first when they are used."""
    with pytest.raises(ConfigError, match="must be finite"):
        AnalysisSettings(bandpass=FilterSpec(f_hi=15e6), **{"spectra_band": (5e5, 20e6), **kw})
