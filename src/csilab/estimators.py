"""Estimators for the measured twin-beam quantities.

Input is a Spectra: one transform of a trace source, a TraceSet or a
TraceStream of four quantized AC channels (p1, p2, c1, c2) plus
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

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import)
import numpy.ma  # noqa: F401  (np.median imports it on its first call)

from .dsp import FilterSpec, Psd, _bandpass_gain, _one_sided, _psd_from_sum
from .errors import BandError, ConfigError, DcMissing, DegenerateSet, NoPeak
from .synth import BLOCK_SETS, TraceSet, TraceStream

_CHUNK = BLOCK_SETS  # sets correlated at a time
_LAG_SPAN = 10  # the delay search spans lags within n // _LAG_SPAN of zero
_PEAK_HALF_WIDTH = 25  # lags this close to the peak are not background
_MIN_BACKGROUND = 8  # background lags needed to judge the peak
# a peak at one end of the 2m + 1 searched lags leaves 2m - _PEAK_HALF_WIDTH
# background lags, more than any other position; shorter sets leave too few
MIN_SAMPLES = _LAG_SPAN * -(-(_MIN_BACKGROUND + _PEAK_HALF_WIDTH) // 2)


@dataclass(frozen=True)
class CorrelationReport:
    """Ensemble-mean g2 curves against lag, their standard errors and the
    conjugate delay.  V statistics come from filtered_violation."""

    tau_grid: np.ndarray
    g2_ab: np.ndarray
    g2_aa: np.ndarray
    g2_bb: np.ndarray
    g2_ab_sem: np.ndarray
    g2_aa_sem: np.ndarray
    g2_bb_sem: np.ndarray
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
    """The cross rows every estimator reads, their ensemble sums and one delay.

    Each channel is transformed once, with the DC bin zeroed, which
    removes each set's mean.  ``cross`` holds three complex rows per set:
    conj(P) C of the recombined beams P = P1 + P2 and C = C1 + C2, and the
    split-pair rows conj(P1) P2 and conj(C1) C2.  Building it also sums
    over sets |P|², |C|², |P1 - P2|², |C1 - C2|² and conj(P) C, which
    only enter as ensemble means.  Sets are transformed a block at a time
    as the trace source, a TraceSet or a TraceStream, yields them, so no
    channel, no beam spectrum and no stream is held whole.

    Every estimator below is built from these rows and sums: a bandpass
    is a real |H| factor, delay compensation a phase ramp, and every eps
    of V a Parseval sum over bins, the cross term included, so no V needs
    an inverse transform.  The g2 curves and the delay take a few.
    ``delay`` is the conjugate's ensemble delay at the cross-covariance
    peak; without a significant peak it is 0, ``delay_fallback`` is true
    and the conjugate stays uncompensated.  Build one per analysis and
    pass it to every estimator; none of them reads the traces.

    Raises DcMissing unless every DC mean is finite and positive, and
    ConfigError for sets shorter than MIN_SAMPLES, which leave the delay
    search too few lags to judge a peak wherever it sits.
    """

    def __init__(self, traces: TraceSet | TraceStream):
        acq = traces.acquisition
        dc = np.asarray(traces.dc_means, dtype=float)
        if not np.all(np.isfinite(dc) & (dc > 0.0)):
            raise DcMissing("trace set carries no usable DC means")
        self.n = n = acq.samples_per_set
        if n < MIN_SAMPLES:
            raise ConfigError(
                f"{n} samples per set are too few for the delay search: it "
                f"spans lags within n // {_LAG_SPAN} of zero and needs "
                f"{_MIN_BACKGROUND} of them more than {_PEAK_HALF_WIDTH} from the "
                f"peak, so samples_per_set must be at least {MIN_SAMPLES}"
            )
        self.rate = float(acq.sample_rate)
        self.dc = tuple(float(v) for v in dc)
        self.sets = sets = acq.num_sets
        self.cross = np.empty((3, sets, n // 2 + 1), dtype=complex)
        self._power_sums = np.zeros((4, n // 2 + 1))  # |P|², |C|², |P1 - P2|², |C1 - C2|²
        step = acq.step
        lo = 0
        for block in traces:
            hi = lo + len(block)
            p1, p2, c1, c2 = (np.fft.rfft(block[:, ch] * step, axis=1) for ch in range(4))
            for x in (p1, p2, c1, c2):
                x[:, 0] = 0.0
            probe, conj = p1 + p2, c1 + c2
            for row, (a, b) in zip(self.cross[:, lo:hi],
                                   ((probe, conj), (p1, p2), (c1, c2))):
                np.multiply(np.conj(a), b, out=row)
            for total, x in zip(self._power_sums, (probe, conj, p1 - p2, c1 - c2)):
                _add_rows(total, np.abs(x) ** 2)
            lo = hi
        self._cross_sum = self.cross[0].sum(axis=0)  # conj(P) C
        # one-sided Parseval weights: mean(x * y) == Re(conj(X) Y) @ weights
        self.weights = _one_sided(n) * (2.0 / (n * n))
        self.delay, self.delay_fallback = self._ensemble_delay(self._cross_sum / sets)

    def _ensemble_delay(self, cross_mean: np.ndarray) -> tuple[float, bool]:
        cov = np.fft.irfft(cross_mean, n=self.n)
        m = self.n // _LAG_SPAN
        lags = np.arange(-m, m + 1)
        try:
            return _delay_from_covariance(lags, cov[lags % self.n] / self.n, self.rate), False
        except NoPeak:
            return 0.0, True

    def _violation_stats(self, gains) -> list[dict]:
        """Per-set eps and V statistics under each gain, from one pass over the sets.

        A gain is a bandpass |H| on the rfft grid, None for no filter.
        Every eps is a Parseval sum over bins weighted by |H|²: eps_aa and
        eps_bb of the split-pair rows, eps_ab of Re(conj(P) C ramp), the
        lag-0 covariance of the filtered beams once the conjugate is
        advanced by the delay.  Each eps is one matrix product of a real
        (sets, bins) copy of a stored cross row, ramped for eps_ab, with a
        (bins, gains) weight matrix; one copy is live at a time.  Raises
        DegenerateSet when fewer than 2 sets carry a positive
        cross-correlation under some gain.
        """
        sets, bins = self.cross.shape[1:]
        w = np.array([self.weights if g is None else self.weights * g * g
                      for g in gains]).T  # (bins, gains)
        dc_p1, dc_p2, dc_c1, dc_c2 = self.dc
        # the matrix products read contiguous real rows; each copy is freed
        # before the next, so at most one real (sets, bins) array is live
        eps_aa = (np.ascontiguousarray(self.cross[1].real) @ w).T / (dc_p1 * dc_p2)
        eps_bb = (np.ascontiguousarray(self.cross[2].real) @ w).T / (dc_c1 * dc_c2)
        ramp = _delay_ramp(self.n, self.rate, self.delay) if self.delay else 1.0
        rows = np.empty((sets, bins))
        for lo in range(0, sets, _CHUNK):
            rows[lo : lo + _CHUNK] = (self.cross[0, lo : lo + _CHUNK] * ramp).real
        eps_ab = (rows @ w).T / ((dc_p1 + dc_p2) * (dc_c1 + dc_c2))
        out = []
        for aa, bb, ab in zip(eps_aa, eps_bb, eps_ab):
            valid = ab > 0.0
            num_degenerate = int(np.count_nonzero(~valid))
            if np.count_nonzero(valid) < 2:
                raise DegenerateSet(
                    f"only {np.count_nonzero(valid)} sets carry a positive "
                    f"cross-correlation ({num_degenerate} degenerate)"
                )
            aa, bb, ab = aa[valid], bb[valid], ab[valid]
            v_per_set = (aa + bb) / (2.0 * ab)
            v_mean = float(v_per_set.mean())
            v_sigma = float(v_per_set.std(ddof=1))
            v_sem = v_sigma / math.sqrt(v_per_set.size)
            out.append(dict(
                eps_aa=float(aa.mean()),
                eps_bb=float(bb.mean()),
                eps_ab_peak=float(ab.mean()),
                v_per_set=v_per_set,
                v_mean=v_mean,
                v_sigma=v_sigma,
                v_sem=v_sem,
                sigma_count=abs(1.0 - v_mean) / v_sem if v_sem > 0 else math.inf,
                violated=v_mean < 1.0,
                v_pooled=float((aa.mean() + bb.mean()) / (2.0 * ab.mean())),
                num_degenerate=num_degenerate,
            ))
        return out


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows of ``rows`` to ``acc`` one by one, in order.

    A reduction along axis 0 adds rows to a zero start in the same
    order, so a sum built chunk by chunk is bit-identical to
    ``.sum(axis=0)`` of the whole array, and so to its ``.mean(axis=0)``
    once divided by the row count.
    """
    for row in rows:
        acc += row


def _band_mask(f: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Bins of the grid f inside band; BandError when band leaves the grid
    or holds no bin of it."""
    lo, hi = band
    if lo < f[0] or hi > f[-1]:
        raise BandError(f"band {band} exceeds the data grid [{f[0]}, {f[-1]}]")
    sel = (f >= lo) & (f <= hi)
    if not sel.any():
        raise BandError(f"band {band} holds no frequency bin")
    return sel


def _delay_from_covariance(lags: np.ndarray, cov: np.ndarray, rate: float) -> float:
    """Parabola-refined argmax of an ensemble cross-covariance, in seconds.

    A positive result means the conjugate lags the probe.  Raises NoPeak
    when the peak does not stand out from the N lags more than
    _PEAK_HALF_WIDTH samples away by sqrt(2 ln N) + 1.5 times their rms: the largest of N Gaussian
    noise lags reaches about sqrt(2 ln N) rms, so a fixed bar would call
    it a peak.
    """
    i = int(np.argmax(cov))
    peak = cov[i]
    bg = cov[np.abs(lags - lags[i]) > _PEAK_HALF_WIDTH]
    if bg.size < _MIN_BACKGROUND:
        raise NoPeak("not enough off-peak lags to judge significance")
    prominence = peak - float(np.median(bg))
    noise = float(np.std(bg))
    bar = math.sqrt(2.0 * math.log(bg.size)) + 1.5
    if noise > 0.0 and prominence < bar * noise:
        raise NoPeak(
            f"cross-covariance peak prominence {prominence:.3g} is below "
            f"{bar:.2f} x background rms {noise:.3g}"
        )
    offset = 0.0
    if 0 < i < cov.size - 1:
        ym1, yp1 = cov[i - 1], cov[i + 1]
        denom = ym1 - 2.0 * peak + yp1
        if denom != 0.0:
            offset = 0.5 * (ym1 - yp1) / denom
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


def _g2_max_lag(tau_max: float, rate: float, n: int) -> int:
    """Lags each side of zero of a g2 window tau_max on sets of n samples."""
    max_lag = max(4, int(round(tau_max * rate)))
    if max_lag > (n - 1) // 2:
        raise ConfigError(
            f"tau_max {tau_max:g} s spans {max_lag} lags at {rate:g} Hz; sets of "
            f"{n} samples hold distinct lags only up to {(n - 1) // 2}"
        )
    return max_lag


def g2_curves(sp: Spectra, tau_max: float = 100e-9) -> CorrelationReport:
    """Normalized intensity correlation curves and their standard errors.

    The cross curve correlates the recombined beams, the autos correlate
    the two halves of one beam (shot noise cancels in both cases): each
    is the lag window of the per-set inverse transforms of one cross row
    of the Spectra.  The cross curve is reported against the raw lag
    axis; ``delay`` is the ensemble delay of the Spectra.  The
    unfiltered V statistics of the same ensemble are
    ``filtered_violation(sp, None)``.  Fewer than two sets raise
    DegenerateSet, since a standard error needs a spread.  The window
    spans max(4, round(tau_max * rate)) lags each side of zero; past
    (n - 1) // 2 a lag wraps round the set onto a negative one, so a
    longer window raises ConfigError before anything is allocated.
    """
    sets = sp.sets
    if sets < 2:
        raise DegenerateSet(f"g2 standard errors need at least 2 sets, got {sets}")
    dc_p1, dc_p2, dc_c1, dc_c2 = sp.dc
    n = sp.n

    max_lag = _g2_max_lag(tau_max, sp.rate, n)
    lags = np.arange(-max_lag, max_lag + 1)
    norms = ((dc_p1 + dc_p2) * (dc_c1 + dc_c2), dc_p1 * dc_p2, dc_c1 * dc_c2)
    traces = np.empty((min(_CHUNK, sets), n))
    # per-set curves, of which only the lag window of each transform is kept;
    # set-major in memory, so the ensemble mean sums sets pairwise
    windows = np.empty((len(norms), lags.size, sets)).transpose(0, 2, 1)
    for lo in range(0, sets, _CHUNK):
        hi = min(lo + _CHUNK, sets)
        k = hi - lo
        for window, xy, norm in zip(windows, sp.cross[:, lo:hi], norms):
            np.fft.irfft(xy, n=n, axis=-1, out=traces[:k])
            window[lo:hi] = 1.0 + traces[:k, lags % n] / n / norm
    g_mean = [g.mean(axis=0) for g in windows]
    g_sem = [g.std(axis=0, ddof=1) / math.sqrt(sets) for g in windows]
    return CorrelationReport(
        tau_grid=lags / sp.rate,
        g2_ab=g_mean[0],
        g2_aa=g_mean[1],
        g2_bb=g_mean[2],
        g2_ab_sem=g_sem[0],
        g2_aa_sem=g_sem[1],
        g2_bb_sem=g_sem[2],
        delay=sp.delay,
    )


def _smooth(power: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return power
    kernel = np.ones(width)
    num = np.convolve(power, kernel, mode="same")
    den = np.convolve(np.ones_like(power), kernel, mode="same")
    return num / den


def normalized_spectra(
    sp: Spectra,
    compensate: bool = True,
    band: tuple[float, float] | None = None,
    smooth_hz: float = 1.5e6,
) -> SpectraReport:
    """SQL-normalized beam and difference spectra plus squeezing metrics.

    s_diff is the raw probe-minus-conjugate noise over the combined SQL
    (no DC balancing).  With ``compensate`` the conjugate is advanced by
    the estimated delay first.  Every spectrum comes from the Spectra's
    ensemble sums: sum |P - C r|² = sum |P|² + |r|² sum |C|² -
    2 Re(r sum conj(P) C) for the delay ramp r (0 at a zeroed Nyquist
    bin), or r = 1 uncompensated.  squeezing metrics come
    from a smoothed copy of s_diff (window ``smooth_hz``) so single-bin
    estimator noise does not fake a deeper minimum; the reported arrays
    stay raw.
    """
    rate = sp.rate
    # a split pair's difference carries its beam's shot noise; the SQL of
    # the intensity difference is the sum of the two
    sql_p, sql_c = (_psd_from_sum(total, sp.sets, sp.n, rate)
                    for total in sp._power_sums[2:])
    sql_diff = Psd(sql_p.frequencies, sql_p.power + sql_c.power, sql_p.num_averages)

    delay = sp.delay if compensate else 0.0
    ramp = _delay_ramp(sp.n, rate, delay) if delay else 1.0
    sum_p, sum_c = sp._power_sums[:2]
    sum_diff = sum_p + np.abs(ramp) ** 2 * sum_c - 2.0 * (ramp * sp._cross_sum).real
    tot_p, tot_c, diff = (_psd_from_sum(total, sp.sets, sp.n, rate)
                          for total in (sum_p, sum_c, sum_diff))

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


def csi_frequency_test(report: SpectraReport, sp: Spectra, band: tuple[float, float]):
    """Spectral form of the CSI verdict over an analysis band.

    lhs integrates the SQL-normalized intensity-difference excess; rhs is
    the beam-asymmetry weight (difference over sum of the DC currents)
    times the integrated difference of the two beams' normalized excess.
    Classical states satisfy lhs >= rhs; lhs < rhs certifies a violation.
    Returns (lhs, rhs, satisfied_classically).  ``sp``, the Spectra the
    report was read from, supplies the DC means.
    """
    dc_p1, dc_p2, dc_c1, dc_c2 = sp.dc
    dc_p = dc_p1 + dc_p2
    dc_c = dc_c1 + dc_c2
    f = report.frequencies
    sel = _band_mask(f, band)
    fsel = f[sel]
    lhs = np.trapezoid(report.s_diff_norm[sel] - 1.0, fsel)
    asym = (dc_p - dc_c) / (dc_p + dc_c)
    rhs = asym * np.trapezoid(report.s_p_norm[sel] - report.s_c_norm[sel], fsel)
    return float(lhs), float(rhs), bool(lhs >= rhs)


def cutoff_sweep(
    sp: Spectra,
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
    gains = (
        _bandpass_gain(FilterSpec(f_hi=float(f_hi), f_lo=f_lo, order=order), sp.n, sp.rate)
        for f_hi in f_hi_list
    )
    # every cutoff in one pass over the sets
    return np.array([(float(f_hi), st["v_mean"], st["v_sigma"])
                     for f_hi, st in zip(f_hi_list, sp._violation_stats(gains))])


def filtered_violation(sp: Spectra, spec: FilterSpec | None) -> dict:
    """Full per-set V statistics after bandpassing all four channels.

    Same filtering as one cutoff_sweep step; ``spec=None`` leaves the
    channels unfiltered.  Returns the eps means (eps_aa, eps_bb and
    eps_ab_peak, the lag-0 covariance of the beams once the conjugate is
    advanced by the delay) and the per-set
    statistics (v_per_set, v_mean, v_sigma, v_sem, sigma_count, violated,
    v_pooled, num_degenerate) for verdict reporting, plus the delay and
    ``delay_fallback``, true when the cross-covariance had no significant
    peak and the delay was taken as 0.  v_sigma is the set-to-set
    standard deviation, v_sem = v_sigma / sqrt(sets kept) and sets whose
    eps_ab is not positive are left out and counted; fewer than two kept
    raise DegenerateSet.
    """
    gain = None if spec is None else _bandpass_gain(spec, sp.n, sp.rate)
    stats = sp._violation_stats([gain])[0]
    stats["delay"] = sp.delay
    stats["delay_fallback"] = sp.delay_fallback
    return stats
