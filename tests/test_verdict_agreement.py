"""The time-domain and spectral CSI verdicts agree in random bands.

``filtered_violation`` bandpasses the beams and compares V with 1;
``csi_frequency_test`` integrates the SQL-normalized spectra of the same
Spectra over the same band.  Within a few standard errors of V = 1
either verdict may flip on noise, so agreement is asserted only outside
that margin, which was fixed before any band was drawn.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csilab.dsp import FilterSpec
from csilab.estimators import Spectra, csi_frequency_test, filtered_violation, normalized_spectra
from csilab.scenarios import preset
from csilab.synth import synthesize_stream

MARGIN = 3.0  # standard errors of V between 1 and a V whose verdict must agree
PRESETS = ("G10", "G2", "G5")


@pytest.fixture(scope="module")
def analyses():
    """(Spectra, its compensated SpectraReport) of each preset's 500 sets."""
    out = {}
    for name in PRESETS:
        sc = preset(name)
        sp = Spectra(synthesize_stream(sc.model, sc.acquisition))
        out[name] = sp, normalized_spectra(sp)
    return out


@st.composite
def bands(draw):
    """(f_lo, f_hi) in Hz: f_lo in [0.5, 10] MHz, f_hi in [f_lo + 1, 20] MHz."""
    f_lo = draw(st.floats(min_value=0.5, max_value=10.0))
    f_hi = draw(st.floats(min_value=f_lo + 1.0, max_value=20.0))
    return f_lo * 1e6, f_hi * 1e6


@settings(max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(PRESETS), band=bands())
def test_verdicts_agree_away_from_the_bound(analyses, name, band):
    sp, rep = analyses[name]
    f_lo, f_hi = band
    stats = filtered_violation(sp, FilterSpec(f_hi=f_hi, f_lo=f_lo, order=10))
    lhs, rhs, classical = csi_frequency_test(rep, sp, band)
    z = (stats["v_mean"] - 1.0) / stats["v_sem"]
    if abs(z) > MARGIN:
        assert stats["violated"] == (not classical), (name, band, z, lhs, rhs)
