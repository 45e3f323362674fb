"""Preset tables and INI overlay loading."""

import numpy as np
import pytest

from csilab.errors import ConfigError
from csilab.scenarios import load_scenario, preset, preset_names


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
        ("[extras]\nx = 1\n", "unknown sections"),
        ("[scenario]\npreset = NOPE\n", "unknown preset"),
        ("[scenario]\nflavor = hot\n", "unknown \\[scenario\\] keys"),
        ("[model]\ngain = ten\n", "not a number"),
    ],
)
def test_load_rejects(tmp_path, text, fragment):
    p = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        load_scenario(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.ini")
