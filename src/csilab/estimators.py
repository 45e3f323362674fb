"""Estimators for the measured twin-beam quantities.

Input is a TraceSet of four quantized AC channels (p1, p2, c1, c2) plus
recorded DC means.  The split-detection layout makes the shot-noise
self-term drop out of every correlation: products are always taken
between different detectors, never of a channel with itself.

The violation factor V = (eps_aa + eps_bb) / (2 eps_ab) < 1 flags a
nonclassical pair; it is computed per set for statistics and pooled over
the ensemble as a cross-check.  Spectral tests integrate SQL-normalized
spectra over an analysis band; both verdicts must agree on the same band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import)
import numpy.ma  # noqa: F401  (np.median imports it on its first call)

from .dsp import FilterSpec, Psd, _bandpass_gain, _one_sided, _psd_from_spectra
from .errors import BandError, ConfigError, DcMissing, DegenerateSet, NoPeak
from .synth import CHANNEL_NAMES, TraceSet

EDGE_GUARD = 32  # samples dropped at each end after delay compensation


@dataclass(frozen=True)
class CorrelationReport:
    """g2 curves, their eps decomposition and per-set V statistics.

    v_sigma is the set-to-set standard deviation (the spread a single
    10 us set carries); v_sem is v_sigma / sqrt(num_valid) and is what
    the distance-to-classical count uses.
    """

    tau_grid: np.ndarray
    g2_ab: np.ndarray
    g2_aa: np.ndarray
    g2_bb: np.ndarray
    g2_ab_sem: np.ndarray
    g2_aa_sem: np.ndarray
    g2_bb_sem: np.ndarray
    eps_aa: float
    eps_bb: float
    eps_ab_peak: float
    v_per_set: np.ndarray
    v_mean: float
    v_sigma: float
    v_sem: float
    sigma_count: float
    violated: bool
    v_pooled: float
    num_degenerate: int
    delay: float


@dataclass(frozen=True)
class SpectraReport:
    """SQL-normalized noise spectra and the metrics read off them."""

    frequencies: np.ndarray
    s_p_norm: np.ndarray
    s_c_norm: np.ndarray
    s_diff_norm: np.ndarray
    sql_p: Psd
    sql_c: Psd
    sql_diff: Psd
    squeezing_db_max: float
    squeezing_bandwidth: float
    delay: float
    compensated: bool
    smooth_hz: float


class Spectra:
    """One rfft per channel of a TraceSet, DC bin zeroed, and one delay.

    Zeroing the DC bin removes each set's mean.  Every estimator below is
    built from these rows: a bandpass is a real |H| factor, delay
    compensation a phase ramp, zero-lag covariances Parseval sums over
    bins, and lagged covariances come from a few inverse transforms.
    ``delay`` is the conjugate's ensemble delay at the cross-covariance
    peak; without a significant peak it is 0, ``delay_fallback`` is true
    and the conjugate stays uncompensated.  Build one per analysis and
    pass it to each estimator in place of the TraceSet.

    Raises DcMissing unless every DC mean is finite and positive, and
    ConfigError when a set is too short to survive the EDGE_GUARD trim.
    """

    def __init__(self, ts: TraceSet):
        dc = np.asarray(ts.dc_means, dtype=float)
        if not np.all(np.isfinite(dc) & (dc > 0.0)):
            raise DcMissing("trace set carries no usable DC means")
        self.n = n = ts.codes.shape[2]
        if n <= 2 * EDGE_GUARD:
            raise ConfigError(
                f"{n} samples per set leave nothing after trimming {EDGE_GUARD} "
                f"at each end; need more than {2 * EDGE_GUARD}"
            )
        self.rate = float(ts.acquisition.sample_rate)
        self.dc = tuple(float(v) for v in dc)
        rows = []
        for name in CHANNEL_NAMES:
            x = np.fft.rfft(ts.ac(name), axis=1)
            x[:, 0] = 0.0
            rows.append(x)
        self.p1, self.p2, self.c1, self.c2 = rows
        self.probe = self.p1 + self.p2
        self.conj = self.c1 + self.c2
        # one-sided Parseval weights: mean(x * y) == Re(conj(X) Y) @ weights
        self.weights = _one_sided(n) * (2.0 / (n * n))
        self.delay, self.delay_fallback = self._ensemble_delay()

    @cached_property
    def _split_cross(self) -> np.ndarray:
        """Re(conj(P1) P2) and Re(conj(C1) C2), shape (2, sets, bins)."""
        return np.stack(
            [np.real(np.conj(self.p1) * self.p2), np.real(np.conj(self.c1) * self.c2)]
        )

    def psd(self, spec: np.ndarray) -> Psd:
        return _psd_from_spectra(spec, self.n, self.rate)

    def sql(self) -> tuple[Psd, Psd, Psd]:
        """(sql_p, sql_c, sql_diff): shot-noise references from the half sums.

        The difference of a split pair has exactly the parent's shot density
        whatever classical noise rides the beam, and the SQL of the
        intensity-difference measurement is the sum of the two.
        """
        sql_p = self.psd(self.p1 - self.p2)
        sql_c = self.psd(self.c1 - self.c2)
        sql_diff = Psd(
            frequencies=sql_p.frequencies,
            power=sql_p.power + sql_c.power,
            num_averages=sql_p.num_averages,
        )
        return sql_p, sql_c, sql_diff

    def _ensemble_delay(self) -> tuple[float, bool]:
        cov = np.fft.irfft((np.conj(self.probe) * self.conj).mean(axis=0), n=self.n)
        m = self.n // 10  # search lags within a tenth of the set length
        lags = np.arange(-m, m + 1)
        try:
            return _delay_from_covariance(lags, cov[lags % self.n] / self.n, self.rate), False
        except NoPeak:
            return 0.0, True

    def violation_stats(self, gain: np.ndarray | None = None) -> dict:
        """Per-set eps and V values; eps_ab at the compensated ensemble peak.

        ``gain`` is a bandpass |H| on the rfft grid, None for no filter.
        """
        dc_p1, dc_p2, dc_c1, dc_c2 = self.dc
        dc_p = dc_p1 + dc_p2
        dc_c = dc_c1 + dc_c2
        probe, conj, weights = self.probe, self.conj, self.weights
        shift = _delay_ramp(self.n, self.rate, self.delay) if self.delay else None
        if gain is not None:
            probe = probe * gain
            weights = weights * gain * gain
            shift = gain if shift is None else shift * gain
        if shift is not None:
            conj = conj * shift
        g = EDGE_GUARD
        pr = np.fft.irfft(probe, n=self.n, axis=1)[:, g:-g]
        co = np.fft.irfft(conj, n=self.n, axis=1)[:, g:-g]
        pr -= pr.mean(axis=1, keepdims=True)
        co -= co.mean(axis=1, keepdims=True)

        # After compensation the peak sits at lag zero by construction, so the
        # center lag is fixed a priori (an argmax over the window would select
        # upward noise when the covariance is flat across neighboring lags and
        # bias eps_ab high).  A parabola through the ensemble curve only
        # refines the sub-sample position.
        ym1, y0, yp1 = _circular_covariances(pr, co)
        frac = _parabolic_vertex(ym1.mean(), y0.mean(), yp1.mean())
        frac = float(np.clip(frac, -1.0, 1.0))

        # per-set parabola through the fixed three lags, read at the fixed vertex
        a = 0.5 * (ym1 + yp1) - y0
        b = 0.5 * (yp1 - ym1)
        peak_per_set = y0 + b * frac + a * frac * frac

        eps_ab = peak_per_set / (dc_p * dc_c)
        eps_aa, eps_bb = self._split_cross @ weights
        eps_aa /= dc_p1 * dc_p2
        eps_bb /= dc_c1 * dc_c2

        valid = eps_ab > 0.0
        num_degenerate = int(np.count_nonzero(~valid))
        if np.count_nonzero(valid) < 2:
            raise DegenerateSet(
                f"only {np.count_nonzero(valid)} sets carry a positive "
                f"cross-correlation ({num_degenerate} degenerate)"
            )
        v_per_set = (eps_aa[valid] + eps_bb[valid]) / (2.0 * eps_ab[valid])
        v_mean = float(v_per_set.mean())
        v_sigma = float(v_per_set.std(ddof=1))
        v_sem = v_sigma / math.sqrt(v_per_set.size)
        v_pooled = float(
            (eps_aa[valid].mean() + eps_bb[valid].mean()) / (2.0 * eps_ab[valid].mean())
        )
        return dict(
            eps_aa=float(eps_aa[valid].mean()),
            eps_bb=float(eps_bb[valid].mean()),
            eps_ab_peak=float(eps_ab[valid].mean()),
            v_per_set=v_per_set,
            v_mean=v_mean,
            v_sigma=v_sigma,
            v_sem=v_sem,
            sigma_count=abs(1.0 - v_mean) / v_sem if v_sem > 0 else math.inf,
            violated=v_mean < 1.0,
            v_pooled=v_pooled,
            num_degenerate=num_degenerate,
        )


def _spectra(x: TraceSet | Spectra) -> Spectra:
    return x if isinstance(x, Spectra) else Spectra(x)


def _band_mask(f: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Bins of the grid f inside band; BandError when band leaves the grid."""
    lo, hi = band
    if lo < f[0] or hi > f[-1]:
        raise BandError(f"band {band} exceeds the data grid [{f[0]}, {f[-1]}]")
    return (f >= lo) & (f <= hi)


def _circular_covariances(x: np.ndarray, y: np.ndarray):
    """Per-row circular covariances mean(x[t] y[t + k]) at lags k = -1, 0, +1."""
    m = x.shape[1]

    def dot(a, b):
        return np.einsum("ij,ij->i", a, b)

    lag_m1 = dot(x[:, 1:], y[:, :-1]) + x[:, 0] * y[:, -1]
    lag_0 = dot(x, y)
    lag_p1 = dot(x[:, :-1], y[:, 1:]) + x[:, -1] * y[:, 0]
    return lag_m1 / m, lag_0 / m, lag_p1 / m


def _parabolic_vertex(ym1: float, y0: float, yp1: float) -> float:
    """Sub-sample offset of the extremum of a 3-point parabola."""
    denom = ym1 - 2.0 * y0 + yp1
    if denom == 0.0:
        return 0.0
    return 0.5 * (ym1 - yp1) / denom


def _delay_from_covariance(lags: np.ndarray, cov: np.ndarray, rate: float) -> float:
    """Parabola-refined argmax of an ensemble cross-covariance, in seconds.

    A positive result means the conjugate lags the probe.  Raises NoPeak
    when the peak does not stand out from the N lags more than 25 samples
    away by sqrt(2 ln N) + 1.5 times their rms: the largest of N Gaussian
    noise lags reaches about sqrt(2 ln N) rms, so a fixed bar would call
    it a peak.
    """
    i = int(np.argmax(cov))
    peak = cov[i]
    bg = cov[np.abs(lags - lags[i]) > 25]
    if bg.size < 8:
        raise NoPeak("not enough off-peak lags to judge significance")
    prominence = peak - float(np.median(bg))
    noise = float(np.std(bg))
    bar = math.sqrt(2.0 * math.log(bg.size)) + 1.5
    if noise > 0.0 and prominence < bar * noise:
        raise NoPeak(
            f"cross-covariance peak prominence {prominence:.3g} is below "
            f"{bar:.2f} x background rms {noise:.3g}"
        )
    if 0 < i < cov.size - 1:
        offset = _parabolic_vertex(cov[i - 1], peak, cov[i + 1])
    else:
        offset = 0.0
    return (lags[i] + offset) / rate


def _delay_ramp(n: int, rate: float, delay: float) -> np.ndarray:
    """Phase ramp on the rfft grid of n samples advancing a trace by delay.

    The ramp is pure phase, so the shift is exact in the spectral sense
    for sub-sample delays too.  For even n a fractional shift has no
    real-valued representation at the Nyquist bin, so that bin is zeroed
    (irrelevant for band-limited data).
    """
    f = np.fft.rfftfreq(n, d=1.0 / rate)
    ramp = np.exp(2j * np.pi * f * delay).astype(complex)
    if n % 2 == 0 and abs(ramp[-1].imag) > 1e-12:
        ramp[-1] = 0.0
    return ramp


def g2_curves(ts: TraceSet | Spectra, tau_max: float = 100e-9) -> CorrelationReport:
    """Normalized intensity correlation curves with per-set V statistics.

    The cross curve correlates the recombined beams, the autos correlate
    the two halves of one beam (shot noise cancels in both cases).  The
    conjugate delay is estimated from the ensemble cross-covariance; the
    cross curve is reported against the raw lag axis, while eps_ab is
    evaluated at the delay-compensated peak.  Sets whose compensated peak
    is not positive are excluded and counted; fewer than two raise
    DegenerateSet.
    """
    sp = _spectra(ts)
    # raises DegenerateSet before a one-set ensemble reaches the ddof=1 SEM
    stats = sp.violation_stats()
    dc_p1, dc_p2, dc_c1, dc_c2 = sp.dc
    n = sp.n

    max_lag = max(4, int(round(tau_max * sp.rate)))
    lags = np.arange(-max_lag, max_lag + 1)
    pairs = (
        (sp.probe, sp.conj, (dc_p1 + dc_p2) * (dc_c1 + dc_c2)),
        (sp.p1, sp.p2, dc_p1 * dc_p2),
        (sp.c1, sp.c2, dc_c1 * dc_c2),
    )
    g_mean, g_sem = [], []
    for x, y, norm in pairs:
        # one curve at a time, keeping only the lag window of its transform
        g = 1.0 + np.fft.irfft(np.conj(x) * y, n=n, axis=-1)[:, lags % n] / n / norm
        g_mean.append(g.mean(axis=0))
        g_sem.append(g.std(axis=0, ddof=1) / math.sqrt(g.shape[0]))
    return CorrelationReport(
        tau_grid=lags / sp.rate,
        g2_ab=g_mean[0],
        g2_aa=g_mean[1],
        g2_bb=g_mean[2],
        g2_ab_sem=g_sem[0],
        g2_aa_sem=g_sem[1],
        g2_bb_sem=g_sem[2],
        delay=sp.delay,
        **stats,
    )


def _smooth(power: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return power
    kernel = np.ones(width)
    num = np.convolve(power, kernel, mode="same")
    den = np.convolve(np.ones_like(power), kernel, mode="same")
    return num / den


def normalized_spectra(
    ts: TraceSet | Spectra,
    compensate: bool = True,
    band: tuple[float, float] | None = None,
    smooth_hz: float = 1.5e6,
) -> SpectraReport:
    """SQL-normalized beam and difference spectra plus squeezing metrics.

    s_diff is the raw probe-minus-conjugate noise over the combined SQL
    (no DC balancing).  With ``compensate`` the conjugate is advanced by
    the estimated delay first.  squeezing metrics come from a smoothed
    copy of s_diff (window ``smooth_hz``) so single-bin estimator noise
    does not fake a deeper minimum; the reported arrays stay raw.
    """
    sp = _spectra(ts)
    rate = sp.rate
    sql_p, sql_c, sql_diff = sp.sql()

    delay = sp.delay if compensate else 0.0
    conj_used = sp.conj * _delay_ramp(sp.n, rate, delay) if delay else sp.conj

    tot_p = sp.psd(sp.probe)
    tot_c = sp.psd(sp.conj)
    diff = sp.psd(sp.probe - conj_used)

    with np.errstate(divide="ignore", invalid="ignore"):
        s_p = np.where(sql_p.power > 0, tot_p.power / sql_p.power, np.nan)
        s_c = np.where(sql_c.power > 0, tot_c.power / sql_c.power, np.nan)
        s_d = np.where(sql_diff.power > 0, diff.power / sql_diff.power, np.nan)

    f = sql_p.frequencies
    if band is None:
        band = (500e3, 0.8 * rate / 2.0)
    sel = _band_mask(f, band)
    width = max(1, int(round(smooth_hz / sql_p.df)))
    fsel = f[sel]
    # smooth inside the metric band only; a full-grid window would pull
    # out-of-band bins (DC junk, the technical-noise shelf below f_lo)
    # into the average and bias a band-edge minimum upward
    ssel = _smooth(np.nan_to_num(s_d[sel], nan=1.0), width)
    imin = int(np.argmin(ssel))
    squeezing_db_max = -10.0 * math.log10(ssel[imin]) if ssel[imin] > 0 else math.inf
    if ssel[imin] >= 1.0:
        squeezing_bandwidth = 0.0
    else:
        # first up-crossing past the minimum, linearly interpolated; a
        # "last point below 1" rule would drift up along noise dips when
        # the crossing is gentle
        above = np.nonzero(ssel[imin:] >= 1.0)[0]
        if above.size:
            j = imin + int(above[0])
            s0, s1 = ssel[j - 1], ssel[j]
            squeezing_bandwidth = float(
                fsel[j - 1] + (1.0 - s0) * (fsel[j] - fsel[j - 1]) / (s1 - s0)
            )
        else:
            squeezing_bandwidth = float(fsel[-1])

    return SpectraReport(
        frequencies=f,
        s_p_norm=s_p,
        s_c_norm=s_c,
        s_diff_norm=s_d,
        sql_p=sql_p,
        sql_c=sql_c,
        sql_diff=sql_diff,
        squeezing_db_max=squeezing_db_max,
        squeezing_bandwidth=squeezing_bandwidth,
        delay=delay,
        compensated=bool(delay),
        smooth_hz=smooth_hz,
    )


def csi_frequency_test(report: SpectraReport, ts: TraceSet, band: tuple[float, float]):
    """Spectral form of the CSI verdict over an analysis band.

    lhs integrates the SQL-normalized intensity-difference excess; rhs is
    the beam-asymmetry weight (difference over sum of the DC currents)
    times the integrated difference of the two beams' normalized excess.
    Classical states satisfy lhs >= rhs; lhs < rhs certifies a violation.
    Returns (lhs, rhs, satisfied_classically).
    """
    dc_p = ts.dc("p1") + ts.dc("p2")
    dc_c = ts.dc("c1") + ts.dc("c2")
    f = report.frequencies
    sel = _band_mask(f, band)
    fsel = f[sel]
    lhs = np.trapezoid(report.s_diff_norm[sel] - 1.0, fsel)
    asym = (dc_p - dc_c) / (dc_p + dc_c)
    rhs = asym * np.trapezoid(report.s_p_norm[sel] - report.s_c_norm[sel], fsel)
    return float(lhs), float(rhs), bool(lhs >= rhs)


def cutoff_sweep(
    ts: TraceSet | Spectra,
    f_hi_list,
    f_lo: float = 500e3,
    order: int = 10,
):
    """V statistics after bandpassing all four channels per cutoff.

    Returns an array of rows (f_hi, v_mean, v_sigma).  The delay is
    estimated once from the unfiltered ensemble so every cutoff sees the
    same alignment.
    """
    f_hi_list = list(f_hi_list)
    if not f_hi_list:
        raise BandError("cutoff list is empty")
    sp = _spectra(ts)
    rows = []
    for f_hi in f_hi_list:
        spec = FilterSpec(f_hi=float(f_hi), f_lo=f_lo, order=order)
        stats = sp.violation_stats(_bandpass_gain(spec, sp.n, sp.rate))
        rows.append((float(f_hi), stats["v_mean"], stats["v_sigma"]))
    return np.array(rows)


def filtered_violation(ts: TraceSet | Spectra, spec: FilterSpec) -> dict:
    """Full per-set V statistics after bandpassing all four channels.

    Same filtering as one cutoff_sweep step, but returns the complete
    stats dict (v_per_set, v_mean, v_sigma, v_sem, sigma_count, violated,
    v_pooled, num_degenerate) for verdict reporting, plus the delay and
    ``delay_fallback``, true when the cross-covariance had no significant
    peak and the delay was taken as 0.
    """
    sp = _spectra(ts)
    stats = sp.violation_stats(_bandpass_gain(spec, sp.n, sp.rate))
    stats["delay"] = sp.delay
    stats["delay_fallback"] = sp.delay_fallback
    return stats
