"""Tests of the closed-form Gaussian predictions and the CSD model."""

import dataclasses
import math

import numpy as np
import pytest

from csilab.errors import DegenerateState, DomainError
from csilab.fock import fock_oracle_moments
from csilab.scenarios import preset
from csilab.theory import (
    CsdModel,
    ExcessNoiseSpec,
    SqueezeParams,
    TechnicalNoiseSpec,
    db,
    g2_ideal,
    mean_photon_numbers,
    squeezing_ideal,
    violation_factor_ideal,
)


@pytest.mark.parametrize("gain, expected", [(10.0, 0.95), (2.0, 0.75), (1.0, 0.5)])
def test_violation_factor_bright_limit(gain, expected):
    assert violation_factor_ideal(gain) == expected


@pytest.mark.parametrize("s", [0.1, 0.3, 0.8])
@pytest.mark.parametrize("nbar", [0.5, 4.0, 100.0])
def test_photon_number_difference_is_seed(s, nbar):
    """Pair emission adds to both modes, so n_p - n_c = |alpha|^2 always."""
    p = SqueezeParams(s=s, alpha=math.sqrt(nbar))
    n_p, n_c = mean_photon_numbers(p)
    assert np.isclose(n_p - n_c, nbar, rtol=1e-12)


def test_from_gain_round_trip():
    p = SqueezeParams.from_gain(10.0, alpha=2.0)
    assert np.isclose(p.gain, 10.0, rtol=1e-12)
    assert p.seed_photons == 4.0


@pytest.mark.parametrize("gain", [1.5, 2.0, 5.0, 8.0, 10.0])
def test_v_converges_to_bright_limit(gain):
    """|V(nbar) - (1 - 1/2G)| <= 10/nbar at nbar = 1e6."""
    nbar = 1e6
    p = SqueezeParams.from_gain(gain, alpha=math.sqrt(nbar))
    v = g2_ideal(p).v_ideal
    assert abs(v - violation_factor_ideal(gain)) <= 10.0 / nbar


@pytest.mark.parametrize("s", [0.05, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.0, 50.0])
def test_csi_always_violated_ideal(s, nbar):
    """The twin-beam state breaks eps_ab^2 <= eps_aa eps_bb for every G > 1."""
    p = SqueezeParams(s=s, alpha=math.sqrt(nbar))
    g2 = g2_ideal(p)
    assert g2.eps_ab**2 > g2.eps_aa * g2.eps_bb
    assert g2.v_ideal < 1.0
    # and the arithmetic-mean form is the weaker of the two
    assert (g2.eps_aa + g2.eps_bb) / 2.0 >= math.sqrt(g2.eps_aa * g2.eps_bb)


def test_tmsv_thermal_marginals():
    """Unseeded twin beams have thermal autos and g2_ab = 2 + 1/sinh^2(s)."""
    g2 = g2_ideal(SqueezeParams(s=0.5))
    assert np.isclose(g2.g2_aa, 2.0, rtol=1e-12)
    assert np.isclose(g2.g2_bb, 2.0, rtol=1e-12)
    assert np.isclose(g2.g2_ab0, 2.0 + 1.0 / math.sinh(0.5) ** 2, rtol=1e-12)


@pytest.mark.parametrize("s", [1e-5, 1e-3])
def test_small_squeezing_photon_numbers_match_oracle(s):
    """G - 1 = sinh²(s) keeps every digit where cosh²(s) - 1 cancels."""
    p = SqueezeParams(s=s, alpha=1.0)
    oracle = fock_oracle_moments(p)
    n_probe, n_conj = mean_photon_numbers(p)
    assert n_probe == pytest.approx(oracle.n_probe, rel=1e-12, abs=0.0)
    assert n_conj == pytest.approx(oracle.n_conj, rel=1e-12, abs=0.0)


def test_tiny_squeezing_is_not_degenerate():
    p = SqueezeParams(s=1e-8)
    assert mean_photon_numbers(p) == (math.sinh(1e-8) ** 2,) * 2
    g2 = g2_ideal(p)
    assert g2.g2_aa == pytest.approx(2.0, rel=1e-12)
    assert g2.g2_ab0 == pytest.approx(2.0 + 1.0 / math.sinh(1e-8) ** 2, rel=1e-12)


def test_degenerate_state_raises():
    with pytest.raises(DegenerateState):
        g2_ideal(SqueezeParams(s=0.0, alpha=1.0))


@pytest.mark.parametrize(
    "bad",
    [dict(s=-0.1), dict(s=float("nan")), dict(s=float("inf"))],
)
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        SqueezeParams(**bad)


def test_gain_below_one_rejected():
    with pytest.raises(DomainError):
        SqueezeParams.from_gain(0.5)
    with pytest.raises(DomainError):
        violation_factor_ideal(0.99)
    with pytest.raises(DomainError):
        squeezing_ideal(10.0, eta=0.0)


def test_squeezing_ideal_values():
    # eta/(2G-1) + (1-eta) at the reference operating points
    assert np.isclose(db(squeezing_ideal(10.0, 0.8)), -6.159, atol=2e-3)
    assert np.isclose(db(squeezing_ideal(10.0, 1.0)), -12.79, atol=0.01)
    assert squeezing_ideal(1.0, 0.8) == 1.0  # no gain, no squeezing


def test_noise_spec_shapes():
    ex = ExcessNoiseSpec(conj_level=1.5, onset_hz=5e6, order=2)
    assert ex.shape(0.0) == 0.0
    assert np.isclose(ex.shape(5e6), 0.5, rtol=1e-12)
    assert ex.shape(1e9) > 0.999
    tech = TechnicalNoiseSpec(level=2.0, corner_hz=5e5)
    assert np.isclose(tech.shape(5e5), 1.0, rtol=1e-12)
    # 1/f below the corner, steep rolloff above it
    assert tech.shape(5e4) > 5.0
    assert tech.shape(5e6) < 0.05


# every number-valued field of the model and of its nested noise specs; a
# model field keeps its bare name as the test id
_NUMBER_FIELDS = [
    pytest.param(spec, f.name,
                 id=f.name if isinstance(spec, CsdModel) else f"{type(spec).__name__}.{f.name}")
    for spec in (
        CsdModel(SqueezeParams.from_gain(10.0, alpha=100.0), 20e6,
                 delay_dispersion=1e-9, dispersion_corner_hz=5e6),
        ExcessNoiseSpec(),
        TechnicalNoiseSpec(),
    )
    for f in dataclasses.fields(spec)
    if not dataclasses.is_dataclass(getattr(spec, f.name))
]


class TestSpectralModel:
    def model(self, gain=10.0, nbar=1e4, **kw):
        p = SqueezeParams.from_gain(gain, alpha=math.sqrt(nbar))
        kw.setdefault("bandwidth", 20e6)
        return CsdModel(p, **kw)

    def test_dc_ratio_follows_photon_numbers(self):
        m = self.model(probe_dc=3.0)
        n_p, n_c = mean_photon_numbers(m.params)
        assert np.isclose(m.conj_dc / m.probe_dc, n_c / n_p, rtol=1e-12)

    def test_line_center_squeezing_matches_closed_form(self):
        """s_diff(0) reaches eta/(2G-1) + 1 - eta as the seed grows bright.

        The carriers scale as G : G-1 while the photon numbers carry the
        extra fluorescence photon, so the derived photon-number DC ratio
        is off the carrier ratio by O(1/nbar); at nbar = 1e14 that term
        sits below the 1e-12 bound.
        """
        for eta in (1.0, 0.8, 0.5):
            m = self.model(nbar=1e14, eta=eta, probe_dc=1.0)
            _, _, s_diff = m.normalized_spectra(np.array([0.0]))
            assert np.isclose(s_diff[0], squeezing_ideal(10.0, eta), rtol=1e-12)

    @pytest.mark.parametrize("nbar, tol", [(1e4, 5e-5), (1e6, 5e-7)])
    def test_line_center_squeezing_default_ratio(self, nbar, tol):
        m = self.model(nbar=nbar, eta=0.8)
        _, _, s_diff = m.normalized_spectra(np.array([0.0]))
        assert np.isclose(s_diff[0], squeezing_ideal(10.0, 0.8), rtol=tol)

    def test_spectra_approach_sql_far_from_line(self):
        """Autos reach the SQL as (f_B/f)^2, the pair correlation only as f_B/f.

        The sideband pairs stay perfectly correlated however weak the far
        gain is, so s_diff keeps a sqrt(G_f - 1) deficit below one until
        detection or excess noise cuts it off.
        """
        m = self.model()
        f = np.array([2000e6, 4000e6])
        s_p, s_c, s_diff = m.normalized_spectra(f)
        assert np.all(np.abs(s_p - 1.0) < 2e-3)
        assert np.all(np.abs(s_c - 1.0) < 2e-3)
        assert np.all(s_diff < 1.0)
        deficit = 1.0 - s_diff
        assert 0.01 < deficit[0] < 0.1
        assert np.isclose(deficit[0] / deficit[1], 2.0, atol=0.05)

    def test_band_epsilons_match_single_mode_values(self):
        """Integrated over the line, the autos reproduce g2_ideal's eps.

        The cross term is left out on purpose: its f_B/f spectral tail
        makes the full-band integral detection-bandwidth dependent (it
        only ever strengthens the measured correlation).
        """
        m = self.model(gain=10.0, nbar=1e4)
        g2 = g2_ideal(m.params)
        freqs = np.linspace(0.0, 500 * m.bandwidth, 500001)
        eps_aa, eps_bb, eps_ab = m.epsilons_on_grid(freqs)
        assert np.isclose(eps_aa, g2.eps_aa, rtol=5e-3)
        assert np.isclose(eps_bb, g2.eps_bb, rtol=5e-3)
        assert eps_ab > g2.eps_ab

    def test_predicted_violation_is_loss_independent(self):
        """Without extra noise, every eps scales with eta the same way."""
        v1 = self.model(eta=1.0).predicted_violation(0.5e6, 15e6)
        v2 = self.model(eta=0.6).predicted_violation(0.5e6, 15e6)
        assert np.isclose(v1, v2, rtol=1e-12)
        # and the band value sits close to the bright-beam limit
        assert abs(v1 - 0.95) < 0.01

    def test_predicted_violation_weighted_band(self):
        """A narrow band at line center approaches 1 - 1/(2G) even closer."""
        m = self.model()
        v = m.predicted_violation(0.1e6, 2e6)
        assert abs(v - 0.95) < 1e-3

    def test_cross_phase_carries_delay(self):
        m = self.model(delay=8e-9)
        f = np.array([10e6, 25e6])
        _, _, spc = m.csd(f)
        assert np.allclose(np.angle(spc), -2.0 * np.pi * f * 8e-9, atol=1e-12)

    def test_uncompensated_difference_oscillates(self):
        """Leaving the delay in beats the cross term: sum noise at half period."""
        m = self.model(delay=8e-9)
        f_null = np.array([1.0 / (2 * 8e-9)])  # cos(2 pi f tau) = -1
        _, _, s_diff_raw = m.normalized_spectra(f_null, compensated=False)
        _, _, s_diff_comp = m.normalized_spectra(f_null, compensated=True)
        assert s_diff_raw[0] > 1.0  # sum-noise level, far above SQL
        assert s_diff_raw[0] > s_diff_comp[0]

    def test_excess_noise_creates_finite_squeezing_band(self):
        quiet = self.model(eta=0.8)
        noisy = self.model(
            eta=0.8,
            excess=ExcessNoiseSpec(conj_level=4.0, onset_hz=5e6, order=2),
        )
        louder = self.model(
            eta=0.8,
            excess=ExcessNoiseSpec(conj_level=8.0, onset_hz=5e6, order=2),
        )
        db_q, bw_q = quiet.predicted_squeezing(0.1e6, 40e6)
        db_n, bw_n = noisy.predicted_squeezing(0.1e6, 40e6)
        _, bw_l = louder.predicted_squeezing(0.1e6, 40e6)
        assert bw_q == 40e6  # never crosses the SQL without excess noise
        assert bw_n < 20e6
        assert bw_l < bw_n
        assert np.isclose(db_q, db_n, atol=0.1)  # line-center dB survives

    def test_no_squeezing_has_no_bandwidth(self):
        """A difference spectrum 40 times the SQL everywhere in the band
        has a negative depth and bandwidth 0, as a measured one would; the
        frequency of its minimum is no bandwidth."""
        loud = self.model(excess=ExcessNoiseSpec(conj_level=40.0, probe_level=40.0,
                                                 onset_hz=1e3, order=1))
        depth, bandwidth = loud.predicted_squeezing(0.5e6, 20e6)
        assert depth == pytest.approx(-16.03, abs=0.01)
        assert bandwidth == 0.0

    def test_crossing_is_interpolated_between_grid_points(self):
        """The bandwidth lies between the two grid points that straddle the
        first up-crossing of the SQL, where the straight line through them
        crosses one."""
        m = self.model(eta=0.8, excess=ExcessNoiseSpec(conj_level=4.0, onset_hz=5e6, order=2))
        _, bandwidth = m.predicted_squeezing(0.1e6, 40e6, npts=401)
        f = np.linspace(0.1e6, 40e6, 401)
        s_diff = m.normalized_spectra(f)[2]
        j = int(np.argmin(s_diff)) + int(np.nonzero(s_diff[np.argmin(s_diff):] >= 1.0)[0][0])
        assert f[j - 1] < bandwidth < f[j]
        assert np.interp(bandwidth, f[j - 1 : j + 1], s_diff[j - 1 : j + 1]) == pytest.approx(1.0)

    def test_model_validation(self):
        p = SqueezeParams.from_gain(10.0, alpha=100.0)
        with pytest.raises(DomainError):
            CsdModel(p, bandwidth=-1.0)
        with pytest.raises(DomainError):
            CsdModel(p, bandwidth=20e6, eta=1.2)
        with pytest.raises(DomainError):
            CsdModel(p, bandwidth=20e6, probe_dc=0.0)
        with pytest.raises(DegenerateState):
            CsdModel(SqueezeParams(s=0.0, alpha=1.0), bandwidth=20e6)

    @pytest.mark.parametrize("field, value", [
        ("params", None), ("params", 10.0), ("excess", None),
        ("excess", TechnicalNoiseSpec()), ("technical", None),
        ("technical", ExcessNoiseSpec()),
    ])
    def test_nested_spec_of_wrong_type_raises(self, field, value):
        kwargs = dict(params=SqueezeParams.from_gain(10.0, alpha=100.0), bandwidth=12e6)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be"):
            CsdModel(**kwargs)

    def test_channel_variances_positive_and_ordered(self):
        m = self.model(probe_dc=2.0)
        var_p, var_c = m.channel_variances(500e6)
        assert var_p > 0 and var_c > 0
        # probe is the brighter beam here, so its half carries more power
        assert var_p > var_c

    def test_probe_excess_independent_shape(self):
        ex = ExcessNoiseSpec(
            conj_level=1.0,
            probe_level=0.5,
            onset_hz=3e6,
            order=2,
            probe_onset_hz=13e6,
            probe_order=3,
        )
        # the probe ramp ignores the conjugate's onset
        assert ex.probe_shape(13e6) == pytest.approx(0.5)
        assert ex.probe_shape(3e6) < 0.01
        inherit = ExcessNoiseSpec(conj_level=1.0, probe_level=0.5, onset_hz=3e6, order=2)
        assert inherit.probe_shape(3e6) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(conj_level=-1.0),
            dict(onset_hz=0.0),
            dict(order=0),
            dict(probe_onset_hz=-1.0),
            dict(probe_order=0),
        ],
    )
    def test_excess_spec_validation(self, bad):
        with pytest.raises(DomainError):
            ExcessNoiseSpec(**bad)

    @pytest.mark.parametrize("field", ["order", "probe_order", "dispersion_order"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True])
    def test_orders_must_be_integers(self, field, bad):
        """A shape's order is an exponent of (f/onset)²; a float or a bool is
        refused when the spec is built, as AcquisitionConfig refuses a
        non-integer count, and a numpy integer is taken."""
        build = self.model if field == "dispersion_order" else ExcessNoiseSpec
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            build(**{field: bad})
        assert getattr(build(**{field: np.int64(3)}), field) == 3

    def test_group_delay_bandpass_swing(self):
        m = self.model(
            delay=13e-9,
            delay_dispersion=50e-9,
            dispersion_corner_hz=5.8e6,
            dispersion_order=6,
            dispersion_cutoff_hz=7.2e6,
        )
        tau = m.group_delay(np.array([0.5e6, 6.5e6, 100e6]))
        assert tau[0] == pytest.approx(13e-9, abs=1e-12)
        assert tau[1] > 30e-9  # inside the anomaly the swing is on
        assert tau[2] == pytest.approx(13e-9, abs=1e-11)  # re-locks above the band

    def test_group_delay_saturating_without_cutoff(self):
        m = self.model(delay=8e-9, delay_dispersion=20e-9, dispersion_corner_hz=5e6)
        tau = m.group_delay(np.array([0.0, 5e6, 500e6]))
        assert tau[0] == pytest.approx(8e-9)
        assert tau[1] == pytest.approx(18e-9, rel=1e-6)  # half swing at the corner
        assert tau[2] == pytest.approx(28e-9, rel=1e-3)

    def test_dispersion_decorrelates_inside_band_only(self):
        flat = self.model(eta=0.8, delay=13e-9)
        swung = self.model(
            eta=0.8,
            delay=13e-9,
            delay_dispersion=50e-9,
            dispersion_corner_hz=5.8e6,
            dispersion_order=6,
            dispersion_cutoff_hz=7.2e6,
        )
        f = np.array([1e6, 6.5e6, 30e6])
        _, _, s_flat = flat.normalized_spectra(f, compensated=True)
        _, _, s_swung = swung.normalized_spectra(f, compensated=True)
        assert s_swung[0] == pytest.approx(s_flat[0], abs=1e-6)
        assert s_swung[1] > s_flat[1] + 0.5  # residual phase kills the cross term
        assert s_swung[2] == pytest.approx(s_flat[2], abs=1e-4)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("spec, field", _NUMBER_FIELDS)
    def test_non_finite_parameter_names_field(self, spec, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            dataclasses.replace(spec, **{field: value})

    def test_replace_rederives_and_rechecks(self):
        base = self.model(delay=8e-9, eta=0.8)
        fresh = self.model(delay=8e-9, eta=0.4)
        assert dataclasses.replace(base, eta=0.4).charge_scale == fresh.charge_scale
        brighter = self.model(delay=8e-9, eta=0.8, probe_dc=2.0)
        assert dataclasses.replace(base, probe_dc=2.0).conj_dc == brighter.conj_dc
        with pytest.raises(DomainError, match="eta"):
            dataclasses.replace(base, eta=1.7)

    def test_dispersion_validation(self):
        p = SqueezeParams.from_gain(10.0, alpha=100.0)
        with pytest.raises(DomainError):
            CsdModel(
                p,
                bandwidth=20e6,
                delay_dispersion=10e-9,
                dispersion_corner_hz=5e6,
                dispersion_cutoff_hz=4e6,
            )


def _bumped(value):
    """A different valid value for one model field."""
    if value is None:
        # above every onset and corner of the digest model, and an integer,
        # as an order must be
        return 7_000_000
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * 0.5 if value else 1.0  # halving keeps eta in (0, 1]


def _perturbations(obj):
    """Every one-field variant of a dataclass, nested dataclasses included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            for inner in _perturbations(value):
                yield f"{f.name}.{inner[0]}", dataclasses.replace(obj, **{f.name: inner[1]})
        else:
            yield f.name, dataclasses.replace(obj, **{f.name: _bumped(value)})


def test_g10_digest_is_pinned():
    """The provenance digest of the G10 preset: twelve hex digits of a
    BLAKE2b hash of every model field."""
    assert preset("G10").model.digest() == "64304362c293"


def test_digest_covers_every_field():
    def model():
        # dispersion on, so bumping delay_dispersion leaves a valid model
        return CsdModel(SqueezeParams.from_gain(10.0, alpha=100.0), 12e6, delay=8e-9,
                        eta=0.8, delay_dispersion=20e-9, dispersion_corner_hz=5e6)

    base = model()
    assert base.digest() == model().digest()
    seen = set()
    for name, variant in _perturbations(base):
        seen.add(name)
        assert variant.digest() != base.digest(), name
    # the walk reached into every nested spec
    assert {"params.alpha", "excess.probe_order", "technical.corner_hz"} <= seen
