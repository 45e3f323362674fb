"""The time-domain and spectral CSI verdicts agree in random bands.

``filtered_violation`` bandpasses the beams and compares V with 1;
``csi_frequency_test`` integrates the SQL-normalized spectra of the same
Spectra over the same band.  Within a few standard errors of V = 1
either verdict may flip on noise, so agreement is asserted only outside
that margin, which was fixed before any band was drawn.  The bands come
from a fixed, seeded list, so each preset's Spectra is built for all of
them and every V is a lookup.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csilab.dsp import FilterSpec
from csilab.estimators import Spectra, csi_frequency_test, filtered_violation, normalized_spectra
from csilab.scenarios import preset
from csilab.synth import synthesize

MARGIN = 3.0  # standard errors of V between 1 and a V whose verdict must agree
PRESETS = ("G10", "G2", "G5")


def _bands(count=40, seed=0x5EED):
    """(f_lo, f_hi) in Hz: f_lo uniform in [0.5, 10] MHz, f_hi uniform in
    [f_lo + 1, 20] MHz."""
    rng = np.random.default_rng(seed)
    f_lo = rng.uniform(0.5, 10.0, count)
    f_hi = rng.uniform(f_lo + 1.0, 20.0)
    return [(float(lo) * 1e6, float(hi) * 1e6) for lo, hi in zip(f_lo, f_hi)]


BANDS = _bands()


def _filter(band):
    f_lo, f_hi = band
    return FilterSpec(f_hi=f_hi, f_lo=f_lo, order=10)


@pytest.fixture(scope="module")
def analyses():
    """(Spectra built for every band, its compensated SpectraReport) of
    each preset's 500 sets."""
    out = {}
    for name in PRESETS:
        sc = preset(name)
        sp = Spectra(synthesize(sc.model, sc.acquisition), [_filter(b) for b in BANDS])
        out[name] = sp, normalized_spectra(sp)
    return out


@settings(max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(PRESETS), band=st.sampled_from(BANDS))
def test_verdicts_agree_away_from_the_bound(analyses, name, band):
    sp, rep = analyses[name]
    stats = filtered_violation(sp, _filter(band))
    lhs, rhs, classical = csi_frequency_test(rep, sp, band)
    z = (stats["v_mean"] - 1.0) / stats["v_sem"]
    if abs(z) > MARGIN:
        assert stats["violated"] == (not classical), (name, band, z, lhs, rhs)
