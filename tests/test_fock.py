"""Brute-force Fock-space cross-checks of the Gaussian closed forms.

The truncated-basis construction is independent of the moment factorization
used in the closed forms: it expands the squeezed seeded state on the number
basis and takes moments with ladder-operator algebra, so agreement between
the two is a real test rather than a tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csilab.cli import ORACLE_TOL
from csilab.errors import CutoffTooSmall
from csilab.fock import MAX_CUTOFF, _log_factorials, fock_oracle_moments
from csilab.theory import SqueezeParams, g2_ideal, mean_photon_numbers

# regression anchors computed once with the oracle at cutoff 48
FROZEN_S03_A15 = dict(
    n_probe=2.5513809796436835,
    n_conj=0.301380979643685,
    g2_aa=1.0713710559366052,
    g2_bb=1.520710059171598,
    g2_ab0=1.7247995555369424,
)


def test_frozen_seeded_point():
    fm = fock_oracle_moments(SqueezeParams(s=0.3, alpha=1.5), cutoff=48)
    for name, value in FROZEN_S03_A15.items():
        assert np.isclose(getattr(fm, name), value, rtol=1e-11), name


def test_frozen_tmsv_point():
    """Unseeded: g2_ab(0) = 2 + 1/sinh^2(s), autos exactly thermal."""
    fm = fock_oracle_moments(SqueezeParams(s=0.5), cutoff=48)
    assert np.isclose(fm.g2_ab0, 5.682694376831169, rtol=1e-12)
    assert np.isclose(fm.g2_aa, 2.0, rtol=1e-12)
    assert np.isclose(fm.g2_bb, 2.0, rtol=1e-12)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("amag", [0.0, 1.0, 2.0])
def test_matches_closed_forms(s, amag):
    p = SqueezeParams(s=s, alpha=amag)
    fm = fock_oracle_moments(p, cutoff=40)
    n_p, n_c = mean_photon_numbers(p)
    assert np.isclose(fm.n_probe, n_p, rtol=1e-9)
    assert np.isclose(fm.n_conj, n_c, rtol=1e-9)
    if n_p > 0 and n_c > 0:
        g2 = g2_ideal(p)
        assert np.isclose(fm.g2_aa, g2.g2_aa, rtol=1e-8)
        assert np.isclose(fm.g2_bb, g2.g2_bb, rtol=1e-8)
        assert np.isclose(fm.g2_ab0, g2.g2_ab0, rtol=1e-8)


def test_seed_phase_is_irrelevant():
    """Photon-number moments cannot depend on the phase of alpha."""
    ref = fock_oracle_moments(SqueezeParams(s=0.3, alpha=1.2), cutoff=40)
    rot = fock_oracle_moments(SqueezeParams(s=0.3, alpha=1.2 * np.exp(0.7j)), cutoff=40)
    assert np.isclose(ref.g2_ab0, rot.g2_ab0, rtol=1e-12)
    assert np.isclose(ref.n_probe, rot.n_probe, rtol=1e-12)


def test_norm_and_cutoff_growth():
    """The basis auto-doubles until the truncated norm closes."""
    fm = fock_oracle_moments(SqueezeParams(s=0.5, alpha=2.0), cutoff=8)
    assert fm.cutoff > 8
    assert fm.norm >= 1.0 - 1e-10


def test_cutoff_too_small():
    with pytest.raises(CutoffTooSmall):
        fock_oracle_moments(SqueezeParams(s=3.5, alpha=10.0), cutoff=16)


def test_unpopulated_conjugate_reported_as_nan():
    fm = fock_oracle_moments(SqueezeParams(s=0.0, alpha=1.0), cutoff=16)
    assert np.isclose(fm.n_probe, 1.0, rtol=1e-12)
    assert fm.n_conj == 0.0
    assert math.isnan(fm.g2_bb)
    assert math.isnan(fm.g2_ab0)


def test_log_factorials_match_lgamma():
    lf = _log_factorials(MAX_CUTOFF)
    assert lf.shape == (MAX_CUTOFF,)
    ref = np.array([math.lgamma(n + 1) for n in range(MAX_CUTOFF)])
    assert lf[0] == lf[1] == 0.0
    np.testing.assert_allclose(lf, ref, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    state=st.one_of(
        st.tuples(st.just("gain"), st.floats(min_value=1.0, max_value=math.cosh(0.6) ** 2,
                                            exclude_min=True)),
        st.tuples(st.just("s"), st.floats(min_value=math.log(1e-12), max_value=math.log(0.6))
                  .map(math.exp)),
    ),
    amag=st.floats(min_value=0.0, max_value=2.0),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_closed_forms_match_oracle_in_trusted_domain(state, amag, phase):
    """g2_ideal agrees with the oracle where `theory --oracle` trusts it.

    Like the CLI check, the state is built from its gain and kept when
    0 < s <= 0.6.  A gain of 1.27 at |alpha| = 1 failed the 1e-8 tolerance
    while the truncation accepted a norm deficit of up to 1e-10.  A gain
    rounds to 1 below s of about 1e-8, so s is also drawn directly,
    log-uniform from 1e-12, where G - 1 = sinh(s)**2 has to keep its
    digits.
    """
    kind, value = state
    alpha = amag * complex(math.cos(phase), math.sin(phase))
    p = SqueezeParams.from_gain(value, alpha=alpha) if kind == "gain" else (
        SqueezeParams(s=value, alpha=alpha))
    assume(0.0 < p.s <= 0.6)
    ideal = g2_ideal(p)
    oracle = fock_oracle_moments(p)
    for name in ("g2_aa", "g2_bb", "g2_ab0"):
        a, b = getattr(ideal, name), getattr(oracle, name)
        assert abs(a - b) <= ORACLE_TOL * abs(b), (name, p, a, b)
