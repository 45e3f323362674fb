"""Gaussian-state predictions for a seeded two-mode squeezer.

The source is modeled as the two-mode squeeze operator S = exp(s(ab - a†b†))
acting on a coherent probe seed |alpha> and a vacuum conjugate.  In the
Heisenberg picture the detected modes are

    A = mu a - nu b†,   B = mu b - nu a†,   mu = cosh(s), nu = sinh(s),

so the intensity gain is G = mu² = cosh²(s) and every normally ordered moment
of a Gaussian state follows from the second moments by moment factorization.
This module collects the closed forms for the photon numbers, the zero-delay
second-order coherences g², the fluctuation correlations eps = g² - 1, the
violation factor V = (eps_aa + eps_bb) / (2 eps_ab) of the Cauchy-Schwarz
bound, and :class:`CsdModel`, the one-sided cross-spectral-density model of
the two detected photocurrents that the trace synthesizer and the analytic
predictions share.  Its fields are the one parameter list of the source.

Spectral conventions
--------------------
All spectra are one-sided power spectral densities in (current units)²/Hz.
Photocurrents are in arbitrary linear units; the shot-noise scale follows
from the seed brightness.  A beam of DC current I carries a shot-noise
(standard quantum limit, SQL) density of 2 q I where q is the current per
unit photon flux.  The single-mode moments above map onto the broadband
picture by assigning the seed a photon flux of |alpha|² photons per temporal
mode and a mode rate of pi * gain_bandwidth; with that identification the
frequency-integrated excess fluctuation power of each beam reproduces the
single-mode eps values for bright seeds.

Loss is a beam splitter: DC scales with eta, above-SQL fluctuation power with
eta², and the vacuum entering the open port restores the shot floor to the
SQL of the transmitted DC.  Normalized fluctuation correlations are therefore
independent of eta; only SQL-relative noise levels change.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dsp import _squeezing
from .errors import DegenerateState, DomainError

TWO_PI = 2.0 * math.pi


def db(ratio):
    """Power ratio expressed in decibels."""
    return 10.0 * np.log10(ratio)


def _check_finite(spec) -> None:
    """DomainError naming the first non-finite number among spec's fields.

    A NaN slips through every range check, so this runs before them.
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


def _check_order(name: str, value) -> None:
    """DomainError unless value is an integer >= 1: a shape's order is an
    exponent, and a float or a bool would build a shape of its own."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")


def highpass_shape(f, corner_hz, order):
    """Smooth saturating high-pass, u/(1+u) with u = (f/corner)^(2 order)."""
    u = (np.asarray(f, dtype=float) / corner_hz) ** (2 * order)
    return u / (1.0 + u)


@dataclass(frozen=True)
class SqueezeParams:
    """Two-mode squeezing strength and coherent seed amplitude.

    Parameters
    ----------
    s : float
        Squeeze parameter, s >= 0.  The intensity gain is cosh²(s).
    alpha : complex
        Seed amplitude of the probe mode; |alpha|² is the mean seed
        photon number per temporal mode.
    """

    s: float
    alpha: complex = 0.0

    def __post_init__(self):
        if not (self.s >= 0.0 and math.isfinite(self.s)):
            raise DomainError(f"squeeze parameter must be finite and >= 0, got {self.s}")
        if not math.isfinite(abs(self.alpha)):
            raise DomainError("seed amplitude must be finite")

    @classmethod
    def from_gain(cls, gain: float, alpha: complex = 0.0) -> "SqueezeParams":
        """Build parameters from the intensity gain G = cosh²(s) >= 1."""
        if not (gain >= 1.0 and math.isfinite(gain)):
            raise DomainError(f"gain must be finite and >= 1, got {gain}")
        return cls(s=math.acosh(math.sqrt(gain)), alpha=alpha)

    @property
    def gain(self) -> float:
        return math.cosh(self.s) ** 2

    @property
    def seed_photons(self) -> float:
        return abs(self.alpha) ** 2


def mean_photon_numbers(p: SqueezeParams) -> tuple[float, float]:
    """Mean photon numbers (n_probe, n_conj) of the two output modes.

    n_probe = G |alpha|² + (G - 1) and n_conj = (G - 1)(|alpha|² + 1);
    their difference equals |alpha|² for every gain (pair emission adds
    photons to both modes in lockstep).  G - 1 is taken as sinh²(s), which
    keeps its digits where cosh²(s) - 1 cancels for small s.
    """
    m = math.sinh(p.s) ** 2
    nbar = p.seed_photons
    n_probe = p.gain * nbar + m
    n_conj = m * (nbar + 1.0)
    return n_probe, n_conj


@dataclass(frozen=True)
class G2Ideal:
    """Zero-delay coherences and fluctuation correlations of the pair."""

    n_probe: float
    n_conj: float
    g2_aa: float
    g2_bb: float
    g2_ab0: float
    eps_aa: float
    eps_bb: float
    eps_ab: float
    v_ideal: float


def g2_ideal(p: SqueezeParams) -> G2Ideal:
    """Closed-form g²(0) values and the violation factor for the pair.

    Moment factorization of the displaced Gaussian output state gives

        <:n_a²:>   = G² nb² + 4 G (G-1) nb + 2 (G-1)²
        <:n_b²:>   = (G-1)² (nb² + 4 nb + 2)
        <:n_a n_b:> = G(G-1) nb² + (G-1)(4G-1) nb + (G-1)(2G-1)

    with nb = |alpha|², from which g²_xy = <:n_x n_y:> / (<n_x><n_y>).
    The fluctuation forms eps = g² - 1 reduce to

        eps_aa = (G-1)(2 G nb + G - 1) / n_probe²
        eps_bb = (2 nb + 1) / (nb + 1)²
        eps_ab = G (G-1)(2 nb + 1) / (n_probe n_conj)

    and V = (eps_aa + eps_bb) / (2 eps_ab) -> 1 - 1/(2G) for bright seeds.

    Raises
    ------
    DegenerateState
        If either mean photon number vanishes (s = 0, or s = 0 and
        alpha = 0), since the normalized ratios are then undefined.
    """
    g = p.gain
    nb = p.seed_photons
    n_p, n_c = mean_photon_numbers(p)
    if n_p <= 0.0 or n_c <= 0.0:
        raise DegenerateState(
            f"g2 undefined for mean photon numbers n_probe={n_p}, n_conj={n_c}"
        )
    m = math.sinh(p.s) ** 2  # G - 1, without the cancellation of cosh²(s) - 1
    mom_aa = g * g * nb * nb + 4.0 * g * m * nb + 2.0 * m * m
    mom_bb = m * m * (nb * nb + 4.0 * nb + 2.0)
    mom_ab = g * m * nb * nb + m * (4.0 * g - 1.0) * nb + m * (2.0 * g - 1.0)

    eps_aa = m * (2.0 * g * nb + m) / (n_p * n_p)
    eps_bb = (2.0 * nb + 1.0) / ((nb + 1.0) * (nb + 1.0))
    eps_ab = g * m * (2.0 * nb + 1.0) / (n_p * n_c)

    return G2Ideal(
        n_probe=n_p,
        n_conj=n_c,
        g2_aa=mom_aa / (n_p * n_p),
        g2_bb=mom_bb / (n_c * n_c),
        g2_ab0=mom_ab / (n_p * n_c),
        eps_aa=eps_aa,
        eps_bb=eps_bb,
        eps_ab=eps_ab,
        v_ideal=(eps_aa + eps_bb) / (2.0 * eps_ab),
    )


def violation_factor_ideal(gain: float) -> float:
    """Bright-seed limit of the violation factor, V = 1 - 1/(2G)."""
    if not (gain >= 1.0 and math.isfinite(gain)):
        raise DomainError(f"gain must be finite and >= 1, got {gain}")
    return 1.0 - 1.0 / (2.0 * gain)


def squeezing_ideal(gain: float, eta: float = 1.0) -> float:
    """Intensity-difference noise over the combined SQL at line center.

    The ideal amplifier puts the difference current at 1/(2G - 1) of the
    standard quantum limit; detection efficiency eta mixes the vacuum back
    in, giving eta/(2G - 1) + (1 - eta).  Use ``db`` for decibels.
    """
    if not (gain >= 1.0 and math.isfinite(gain)):
        raise DomainError(f"gain must be finite and >= 1, got {gain}")
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must be in (0, 1], got {eta}")
    return eta / (2.0 * gain - 1.0) + (1.0 - eta)


@dataclass(frozen=True)
class ExcessNoiseSpec:
    """Uncorrelated excess photocurrent noise added to each beam.

    Levels are one-sided PSDs in units of the beam's SQL, referred to the
    source (before detection loss).  The spectral shape is a smooth
    high-pass ``(f/onset)^(2 order) / (1 + (f/onset)^(2 order))`` saturating
    at the quoted level, which mimics gain-process noise that matters away
    from line center.  The default is quiet on the probe.  The probe may
    carry its own onset and order (it inherits the conjugate shape when
    they are left unset), since the two beams see different Raman and
    absorption backgrounds.
    """

    conj_level: float = 0.0
    probe_level: float = 0.0
    onset_hz: float = 5e6
    order: int = 2
    probe_onset_hz: float | None = None
    probe_order: int | None = None

    def __post_init__(self):
        _check_finite(self)
        if self.conj_level < 0.0 or self.probe_level < 0.0:
            raise DomainError("excess noise levels must be >= 0")
        if self.onset_hz <= 0.0:
            raise DomainError("excess noise onset must be > 0")
        _check_order("order", self.order)
        if self.probe_onset_hz is not None and self.probe_onset_hz <= 0.0:
            raise DomainError("probe excess onset must be > 0")
        if self.probe_order is not None:
            _check_order("probe_order", self.probe_order)

    def shape(self, f) -> np.ndarray:
        return highpass_shape(f, self.onset_hz, self.order)

    def probe_shape(self, f) -> np.ndarray:
        onset = self.probe_onset_hz if self.probe_onset_hz is not None else self.onset_hz
        order = self.probe_order if self.probe_order is not None else self.order
        return highpass_shape(f, onset, order)


@dataclass(frozen=True)
class TechnicalNoiseSpec:
    """Common-mode relative-intensity noise shared by both beams.

    ``level`` is the probe's technical noise PSD in SQL units at the corner
    frequency.  The shape is 1/f below the corner and falls steeply above
    it, so a high-pass at the corner removes it.  Both beams see the same
    relative fluctuation; SQL-normalized levels scale with each beam's DC.
    """

    level: float = 0.0
    corner_hz: float = 5e5

    def __post_init__(self):
        _check_finite(self)
        if self.level < 0.0:
            raise DomainError("technical noise level must be >= 0")
        if self.corner_hz <= 0.0:
            raise DomainError("technical noise corner must be > 0")

    def shape(self, f) -> np.ndarray:
        """Unit value at the corner, 1/f below it, ~f^-5 above it."""
        f = np.asarray(f, dtype=float)
        with np.errstate(divide="ignore"):
            raw = np.where(f > 0.0, self.corner_hz / np.maximum(f, 1e-300), 0.0)
        return raw * 4.0 / (1.0 + (f / self.corner_hz) ** 2) ** 2


@dataclass(frozen=True)
class CsdModel:
    """One-sided 2x2 cross-spectral density of the detected photocurrents.

    The one source model, shared by the scenarios, the trace synthesizer
    and the analytic band predictions used to design scenarios.  Every
    way of building one, ``dataclasses.replace`` included, runs the
    checks in ``__post_init__``: a non-finite or out-of-range parameter
    raises DomainError and a dark beam DegenerateState.

    Parameters
    ----------
    params : SqueezeParams
        Gain and seed of the source.
    bandwidth : float
        Gain-line half width f_B in Hz (Lorentzian knee of G(f) - 1).
    delay : float
        Conjugate arrival delay in seconds (positive = conjugate later).
    eta : float
        Detection efficiency per beam, in (0, 1].
    excess, technical : noise specifications, quiet by default.
    probe_dc : float
        Detected probe DC in arbitrary current units.

    Notes
    -----
    ``conj_dc``, the detected conjugate DC, follows the photon-number
    ratio n_conj / n_probe, and ``charge_scale``, the current per unit
    photon flux, the mode-rate identification in the module docstring;
    both are derived properties, so a ``replace`` re-derives them.  At
    line center the compensated difference spectrum reproduces
    ``squeezing_ideal(G, eta)`` to O(1/|alpha|²) when no excess or
    technical noise is configured (the photon-number DC ratio differs
    from the carrier ratio G : G-1 by the single fluorescence photon).
    """

    params: SqueezeParams
    bandwidth: float
    delay: float = 0.0
    eta: float = 1.0
    excess: ExcessNoiseSpec = ExcessNoiseSpec()
    technical: TechnicalNoiseSpec = TechnicalNoiseSpec()
    probe_dc: float = 1.0
    # relative group-delay dispersion: the conjugate-vs-probe delay swings
    # from ``delay`` at line center by ``delay_dispersion`` past the onset
    # at ``dispersion_corner_hz``; with a cutoff set, the excursion is a
    # localized anomaly that relaxes back to ``delay`` above it
    delay_dispersion: float = 0.0
    dispersion_corner_hz: float = 0.0
    dispersion_order: int = 2
    dispersion_cutoff_hz: float | None = None

    def __post_init__(self):
        for name, kind in (("params", SqueezeParams), ("excess", ExcessNoiseSpec),
                           ("technical", TechnicalNoiseSpec)):
            if not isinstance(getattr(self, name), kind):
                raise DomainError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        _check_finite(self)
        if self.bandwidth <= 0.0:
            raise DomainError(f"gain bandwidth must be > 0, got {self.bandwidth}")
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must be in (0, 1], got {self.eta}")
        if self.probe_dc <= 0.0:
            raise DomainError("probe DC must be > 0")
        if self.delay < 0.0:
            raise DomainError("conjugate delay must be >= 0")
        if self.delay_dispersion != 0.0 and self.dispersion_corner_hz <= 0.0:
            raise DomainError("delay dispersion needs a positive corner frequency")
        _check_order("dispersion_order", self.dispersion_order)
        if (self.dispersion_cutoff_hz is not None
                and self.dispersion_cutoff_hz <= self.dispersion_corner_hz):
            raise DomainError("dispersion cutoff must sit above the corner")
        n_p, n_c = mean_photon_numbers(self.params)
        if n_p <= 0.0 or n_c <= 0.0:
            raise DegenerateState(
                "spectral model needs both beams populated; "
                f"got n_probe={n_p}, n_conj={n_c}"
            )

    def digest(self) -> str:
        """Twelve hex digits of a BLAKE2b hash of every field, nested specs
        included.  hashlib's BLAKE2 is built into CPython, so a digest
        pages in none of OpenSSL's libcrypto, as its sha1 would."""
        payload = repr(astuple(self)).encode()
        return hashlib.blake2b(payload, digest_size=6).hexdigest()

    @property
    def conj_dc(self) -> float:
        """Detected conjugate DC, at the photon-number ratio n_conj / n_probe."""
        n_p, n_c = mean_photon_numbers(self.params)
        return self.probe_dc * n_c / n_p

    @property
    def charge_scale(self) -> float:
        """Current per unit photon flux; the detected flux is eta n_probe pi f_B."""
        n_p, _ = mean_photon_numbers(self.params)
        return self.probe_dc / (self.eta * n_p * math.pi * self.bandwidth)

    @property
    def sql_probe(self) -> float:
        return 2.0 * self.charge_scale * self.probe_dc

    @property
    def sql_conj(self) -> float:
        return 2.0 * self.charge_scale * self.conj_dc

    def _normalized_parts(self, f):
        """SQL-relative detected spectra before any delay phase.

        Returns (s_p, s_c, x) with the cross term x in sqrt(SQL_p SQL_c)
        units.  Technical noise rides both beams scaled by their DC.
        """
        f = np.asarray(f, dtype=float)
        gf = 1.0 + (self.params.gain - 1.0) / (1.0 + (f / self.bandwidth) ** 2)
        base = 2.0 * (gf - 1.0)
        cross_src = 2.0 * np.sqrt(gf * (gf - 1.0))
        e_p = self.excess.probe_level * self.excess.probe_shape(f)
        e_c = self.excess.conj_level * self.excess.shape(f)

        tech_p = np.zeros_like(f)
        if self.technical.level > 0.0:
            tech_p = self.technical.level * self.technical.shape(f)
        ratio = self.conj_dc / self.probe_dc
        tech_c = tech_p * ratio
        tech_x = tech_p * math.sqrt(ratio)

        s_p = 1.0 + self.eta * (base + e_p) + tech_p
        s_c = 1.0 + self.eta * (base + e_c) + tech_c
        x = self.eta * cross_src + tech_x
        return s_p, s_c, x

    def group_delay(self, f) -> np.ndarray:
        """Conjugate-vs-probe relative delay at analysis frequency f.

        Both beams ride steep slow-light dispersion in the vapor, so
        their relative group delay is not flat: it relaxes from the
        line-center value ``delay`` toward ``delay + delay_dispersion``
        beyond the dispersion corner.  A constant-delay compensation
        then leaves a residual phase that decorrelates the beams at
        high frequency.
        """
        f = np.asarray(f, dtype=float)
        tau = np.full_like(f, self.delay)
        if self.delay_dispersion != 0.0 and self.dispersion_corner_hz > 0.0:
            swing = highpass_shape(f, self.dispersion_corner_hz, self.dispersion_order)
            if self.dispersion_cutoff_hz is not None:
                swing = swing * (
                    1.0 - highpass_shape(f, self.dispersion_cutoff_hz, self.dispersion_order)
                )
            tau = tau + self.delay_dispersion * swing
        return tau

    def csd(self, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Absolute one-sided densities (S_pp, S_cc, S_pc) at frequencies f.

        S_pc carries the phase of the conjugate arrival delay: with the
        cross covariance defined as <dI_p(t) dI_c(t + tau)>, a conjugate
        that arrives ``delay`` later gives S_pc(f) ~ exp(-i 2 pi f delay),
        with the dispersive part of the relative delay folded in.
        """
        f = np.asarray(f, dtype=float)
        s_p, s_c, x = self._normalized_parts(f)
        spp = self.sql_probe * s_p
        scc = self.sql_conj * s_c
        mag = math.sqrt(self.sql_probe * self.sql_conj) * x
        spc = mag * np.exp(-1j * TWO_PI * f * self.group_delay(f))
        return spp, scc, spc

    def _phased_parts(self, f, compensated: bool):
        """(s_p, s_c, cross) with the cross term projected on the residual phase.

        The residual is the relative delay left after removing its
        line-center value (``compensated``) or nothing.
        """
        s_p, s_c, x = self._normalized_parts(f)
        residual = self.group_delay(f) - (self.delay if compensated else 0.0)
        return s_p, s_c, x * np.cos(TWO_PI * f * residual)

    def normalized_spectra(self, f, compensated: bool = True):
        """Predicted (s_p, s_c, s_diff) over the combined SQLs.

        s_diff is the raw probe-minus-conjugate noise over SQL_p + SQL_c;
        ``compensated=True`` models an analysis that lines the traces up
        on the correlation peak, which removes the constant part of the
        relative delay but not its dispersion.  ``compensated=False``
        leaves the full phase in, which beats the cross term against
        cos(2 pi f tau(f)).
        """
        f = np.asarray(f, dtype=float)
        s_p, s_c, cross = self._phased_parts(f, compensated)
        wp = self.sql_probe
        wc = self.sql_conj
        s_diff = (wp * s_p + wc * s_c - 2.0 * math.sqrt(wp * wc) * cross) / (wp + wc)
        return s_p, s_c, s_diff

    def epsilons_on_grid(self, freqs, weight=None):
        """Band-integrated fluctuation correlations (eps_aa, eps_bb, eps_ab).

        Trapezoid integration of the excess (above-SQL) densities over the
        given frequency grid, normalized by the DC products, optionally
        weighted by a |H(f)|² response.  These are the values a correlation
        measurement restricted to that band converges to.
        """
        freqs = np.asarray(freqs, dtype=float)
        s_p, s_c, cross = self._phased_parts(freqs, compensated=True)
        w = np.ones_like(freqs) if weight is None else np.asarray(weight(freqs))
        qp = self.sql_probe
        qc = self.sql_conj
        eps_aa = np.trapezoid(w * (s_p - 1.0) * qp, freqs) / self.probe_dc**2
        eps_bb = np.trapezoid(w * (s_c - 1.0) * qc, freqs) / self.conj_dc**2
        eps_ab = np.trapezoid(w * cross * math.sqrt(qp * qc), freqs) / (
            self.probe_dc * self.conj_dc
        )
        return eps_aa, eps_bb, eps_ab

    def predicted_violation(self, f_lo, f_hi, npts: int = 4001, weight=None) -> float:
        """Violation factor a band-limited measurement converges to."""
        freqs = np.linspace(f_lo, f_hi, npts)
        eps_aa, eps_bb, eps_ab = self.epsilons_on_grid(freqs, weight)
        return (eps_aa + eps_bb) / (2.0 * eps_ab)

    def predicted_squeezing(self, f_lo, f_hi, npts: int = 4001):
        """(max squeezing in dB, bandwidth) of the difference spectrum.

        Read off the compensated s_diff on npts points from f_lo to f_hi,
        unsmoothed, by dsp._squeezing, the rule normalized_spectra applies
        to a measurement.  Squeezing is quoted in dB below the SQL.
        """
        freqs = np.linspace(f_lo, f_hi, npts)
        return _squeezing(freqs, self.normalized_spectra(freqs)[2])

    def channel_variances(self, f_max, npts: int = 20001) -> tuple[float, float]:
        """AC variance of one split-detector channel per beam up to f_max.

        Each half sees a quarter of the parent beam's density plus a quarter
        of the parent SQL from the splitter's open port.
        """
        freqs = np.linspace(0.0, f_max, npts)
        s_p, s_c, _ = self._normalized_parts(freqs)
        var_p = np.trapezoid((s_p + 1.0) * self.sql_probe, freqs) / 4.0
        var_c = np.trapezoid((s_c + 1.0) * self.sql_conj, freqs) / 4.0
        return float(var_p), float(var_c)
