"""Twin-beam Cauchy-Schwarz inequality simulator and analysis toolkit.

Synthesizes four-channel photodetector traces of bright twin beams from
a seeded four-wave mixing model, estimates intensity correlations and
SQL-normalized noise spectra from them, and evaluates the classicality
inequality both in the time domain (violation factor) and per frequency
band, with closed-form Gaussian predictions and a Fock-space oracle to
validate against.
"""

from .dsp import FilterSpec, Psd, psd_estimate
from .errors import (
    BandError,
    ConfigError,
    ClipWarning,
    CsilabError,
    CutoffTooSmall,
    DcMissing,
    DegenerateSet,
    DegenerateState,
    DomainError,
    NoPeak,
    SpecError,
    TraceFileError,
)
from .estimators import (
    CorrelationReport,
    Spectra,
    SpectraReport,
    csi_frequency_test,
    cutoff_sweep,
    filtered_violation,
    g2_curves,
    normalized_spectra,
)
from .fock import FockMoments, fock_oracle_moments
from .scenarios import AnalysisSettings, Scenario, load_scenario, preset, preset_names
from .synth import AcquisitionConfig, TraceSet, apply_loss, synthesize
from .theory import (
    CsdModel,
    ExcessNoiseSpec,
    G2Ideal,
    SqueezeParams,
    TechnicalNoiseSpec,
    db,
    g2_ideal,
    mean_photon_numbers,
    squeezing_ideal,
    violation_factor_ideal,
)
from .tracefile import read_tracefile, write_stream

__version__ = "0.1.0"

__all__ = [
    "AcquisitionConfig",
    "AnalysisSettings",
    "BandError",
    "ClipWarning",
    "ConfigError",
    "CorrelationReport",
    "CsdModel",
    "CsilabError",
    "CutoffTooSmall",
    "DcMissing",
    "DegenerateSet",
    "DegenerateState",
    "DomainError",
    "ExcessNoiseSpec",
    "FilterSpec",
    "FockMoments",
    "G2Ideal",
    "NoPeak",
    "Psd",
    "Scenario",
    "SpecError",
    "Spectra",
    "SpectraReport",
    "SqueezeParams",
    "TechnicalNoiseSpec",
    "TraceFileError",
    "TraceSet",
    "apply_loss",
    "csi_frequency_test",
    "cutoff_sweep",
    "db",
    "filtered_violation",
    "fock_oracle_moments",
    "g2_curves",
    "g2_ideal",
    "load_scenario",
    "mean_photon_numbers",
    "normalized_spectra",
    "preset",
    "preset_names",
    "psd_estimate",
    "read_tracefile",
    "squeezing_ideal",
    "synthesize",
    "violation_factor_ideal",
    "write_stream",
]
