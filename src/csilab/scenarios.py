"""Scenario presets and INI configuration loading.

A Scenario bundles everything one measurement run needs: the source
model (a :class:`~csilab.theory.CsdModel`, which checks its own
parameters), the digitizer settings and the analysis band. The shipped
presets are tuned to reference scalar targets (violation factors,
squeezing depth and bandwidth, cutoff-sweep behavior); the
excess-noise and dispersion numbers in them are calibration knobs, not
measured quantities.

Configuration files use INI syntax with unit-suffixed keys::

    [scenario]
    preset = G10        ; optional starting point

    [model]
    gain = 10
    delay_ns = 8.0

    [acquisition]
    num_sets = 500

    [analysis]
    f_hi_mhz = 15

Any key accepted in a section can be omitted; it falls back to the
preset named under [scenario], or to the G10 values when no preset is
given. ``_DEFAULTS`` lists every key of every section; a key whose
default is an integer takes integer values (hex included), every other
key a finite float.
"""

import configparser
import math
from dataclasses import dataclass

from .dsp import FilterSpec
from .errors import ConfigError
from .synth import AcquisitionConfig
from .theory import CsdModel, ExcessNoiseSpec, SqueezeParams, TechnicalNoiseSpec


@dataclass(frozen=True)
class AnalysisSettings:
    """Band and estimator knobs applied when analyzing a trace set."""

    bandpass: FilterSpec
    spectra_band: tuple
    tau_max: float = 100e-9
    smooth_hz: float = 1.5e6

    def __post_init__(self):
        lo, hi = self.spectra_band
        if not (0.0 <= lo < hi < math.inf):
            raise ConfigError(f"spectra band {self.spectra_band} must be finite with 0 <= lo < hi")
        if not 0.0 < self.tau_max < math.inf:
            raise ConfigError(f"tau_max must be finite and > 0, got {self.tau_max}")
        if not 0.0 <= self.smooth_hz < math.inf:
            raise ConfigError(f"smooth_hz must be finite and >= 0, got {self.smooth_hz}")


@dataclass(frozen=True)
class Scenario:
    name: str
    model: CsdModel
    acquisition: AcquisitionConfig
    analysis: AnalysisSettings


# Parameter tables in config-file units, one per INI section. These dicts
# are the source of truth for the presets; ``load_scenario`` overlays file
# values on a copy before the objects are built, so every key here is
# overridable.

_DEFAULTS = {
    "model": {
        "gain": 10.0,
        "alpha": 100.0,
        "probe_dc": 1.0,
        "eta": 0.8,
        "gain_bandwidth_mhz": 12.0,
        "delay_ns": 8.0,
        "technical_level": 2.0,
        "technical_corner_khz": 500.0,
        "excess_conj_level": 0.0,
        "excess_probe_level": 0.0,
        "excess_onset_mhz": 5.0,
        "excess_order": 2,
        "excess_probe_onset_mhz": 0.0,  # 0 means: share the conjugate onset
        "excess_probe_order": 0,
        "delay_dispersion_ns": 0.0,
        "dispersion_corner_mhz": 0.0,
        "dispersion_order": 2,
        "dispersion_cutoff_mhz": 0.0,
    },
    "acquisition": {
        "sample_rate_mhz": 1000.0,
        "samples_per_set": 10000,
        "num_sets": 500,
        "adc_bits": 9,
        "full_scale": 0.0,  # 0 means: derive from the model
        "rng_seed": 0xC51F00D,
    },
    "analysis": {
        "f_lo_mhz": 0.5,
        "f_hi_mhz": 15.0,
        "filter_order": 10,
        "spectra_hi_mhz": 20.0,
        "tau_max_ns": 100.0,
        "smooth_mhz": 1.5,
    },
}

_PRESETS = {
    "G2": {
        "model": {
            "gain": 4.0,
            "gain_bandwidth_mhz": 12.0,
            "delay_ns": 13.0,
            "excess_conj_level": 2.0,
            "excess_onset_mhz": 6.0,
            "excess_order": 5,
            "delay_dispersion_ns": 51.2,
            "dispersion_corner_mhz": 5.8,
            "dispersion_order": 6,
            "dispersion_cutoff_mhz": 7.2,
        },
        "analysis": {"smooth_mhz": 1.0},
    },
    "G5": {
        "model": {
            "gain": 5.0,
            "gain_bandwidth_mhz": 20.0,
            "delay_ns": 11.0,
            "excess_conj_level": 2.0,
            "excess_onset_mhz": 5.0,
            "excess_order": 2,
        },
    },
    "G8": {
        "model": {
            "gain": 8.0,
            "gain_bandwidth_mhz": 20.0,
            "delay_ns": 9.0,
            "excess_conj_level": 2.0,
            "excess_onset_mhz": 5.0,
            "excess_order": 2,
        },
    },
    "G10": {
        "model": {
            "gain": 10.0,
            "gain_bandwidth_mhz": 12.0,
            "delay_ns": 8.0,
            "excess_conj_level": 1.7241,
            "excess_probe_level": 0.3,
            "excess_onset_mhz": 2.871,
            "excess_order": 2,
            "excess_probe_onset_mhz": 13.0,
            "excess_probe_order": 3,
        },
    },
    "G10_IDEAL": {
        "model": {
            "gain": 10.0,
            "gain_bandwidth_mhz": 80.0,
            "delay_ns": 0.0,
            "eta": 1.0,
            "technical_level": 0.0,
        },
        "analysis": {"f_hi_mhz": 6.0},
    },
}


def preset_names():
    return list(_PRESETS)


def _merged_params(name: str):
    key = name.upper()
    if key not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(_PRESETS)}"
        )
    over = _PRESETS[key]
    params = {s: {**table, **over.get(s, {})} for s, table in _DEFAULTS.items()}
    return key, params


def _build(name: str, params) -> Scenario:
    m = params["model"]
    excess = ExcessNoiseSpec(
        conj_level=m["excess_conj_level"],
        probe_level=m["excess_probe_level"],
        onset_hz=m["excess_onset_mhz"] * 1e6,
        order=m["excess_order"],
        probe_onset_hz=m["excess_probe_onset_mhz"] * 1e6 or None,
        probe_order=m["excess_probe_order"] or None,
    )
    technical = TechnicalNoiseSpec(
        level=m["technical_level"], corner_hz=m["technical_corner_khz"] * 1e3
    )
    model = CsdModel(
        SqueezeParams.from_gain(m["gain"], alpha=m["alpha"]),
        m["gain_bandwidth_mhz"] * 1e6,
        delay=m["delay_ns"] * 1e-9,
        eta=m["eta"],
        excess=excess,
        technical=technical,
        probe_dc=m["probe_dc"],
        delay_dispersion=m["delay_dispersion_ns"] * 1e-9,
        dispersion_corner_hz=m["dispersion_corner_mhz"] * 1e6,
        dispersion_order=m["dispersion_order"],
        dispersion_cutoff_hz=m["dispersion_cutoff_mhz"] * 1e6 or None,
    )
    a = params["acquisition"]
    acq = AcquisitionConfig(
        sample_rate=a["sample_rate_mhz"] * 1e6,
        samples_per_set=a["samples_per_set"],
        num_sets=a["num_sets"],
        adc_bits=a["adc_bits"],
        full_scale=a["full_scale"] or None,
        rng_seed=a["rng_seed"],
    )
    an = params["analysis"]
    analysis = AnalysisSettings(
        bandpass=FilterSpec(
            f_hi=an["f_hi_mhz"] * 1e6,
            f_lo=an["f_lo_mhz"] * 1e6,
            order=an["filter_order"],
        ),
        spectra_band=(an["f_lo_mhz"] * 1e6, an["spectra_hi_mhz"] * 1e6),
        tau_max=an["tau_max_ns"] * 1e-9,
        smooth_hz=an["smooth_mhz"] * 1e6,
    )
    return Scenario(name=name, model=model, acquisition=acq, analysis=analysis)


def preset(name: str) -> Scenario:
    key, params = _merged_params(name)
    return _build(key, params)


def _coerce(section: str, key: str, raw: str):
    try:
        if isinstance(_DEFAULTS[section][key], int):
            return int(raw, 0)  # base 0 so hex seeds work
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def load_scenario(path) -> Scenario:
    """Build a Scenario from an INI file, overlaying a preset base."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    base = "G10"
    name = None
    if cp.has_section("scenario"):
        extra = set(cp["scenario"]) - {"preset", "name"}
        if extra:
            raise ConfigError(f"unknown [scenario] keys: {', '.join(sorted(extra))}")
        base = cp["scenario"].get("preset", base)
        name = cp["scenario"].get("name")

    key, params = _merged_params(base)
    for section in _DEFAULTS:
        if not cp.has_section(section):
            continue
        table = params[section]
        for k, raw in cp[section].items():
            if k not in table:
                raise ConfigError(f"unknown key {k!r} in [{section}]")
            table[k] = _coerce(section, k, raw)

    known = {"scenario", "model", "acquisition", "analysis", "DEFAULT"}
    stray = [s for s in cp.sections() if s not in known]
    if stray:
        raise ConfigError(f"unknown sections: {', '.join(stray)}")

    return _build(name or key, params)
