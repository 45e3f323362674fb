"""Spectral estimation, bandpass filtering and delay tools.

Everything here works on real-valued trace arrays shaped (num_sets,
num_samples) or plain 1-D; transforms act along the last axis.  Spectra
follow the one-sided convention: integrating `power` over the frequency
grid returns the time-domain variance (per-set mean removed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import)
import numpy.ma  # noqa: F401  (np.median imports it on its first call)

from .errors import NoPeak, SpecError

# attenuation is exactly 3 dB at the band edges (the half-power
# convention would sit at 10 log10(2) = 3.0103 dB instead)
_EDGE_EPS2 = 10.0 ** 0.3 - 1.0


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth bandpass description: -3 dB points at f_lo and f_hi."""

    f_hi: float
    f_lo: float = 500e3
    order: int = 10

    def __post_init__(self):
        if not (0.0 < self.f_lo < self.f_hi):
            raise SpecError(
                f"need 0 < f_lo < f_hi, got f_lo={self.f_lo}, f_hi={self.f_hi}"
            )
        if self.order < 2 or self.order % 2:
            raise SpecError(f"filter order must be even and >= 2, got {self.order}")

    def magnitude(self, f) -> np.ndarray:
        """Analog bandpass Butterworth gain |H(f)| on a frequency grid."""
        f = np.asarray(f, dtype=float)
        span = self.f_hi - self.f_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            q = (f * f - self.f_lo * self.f_hi) / (f * span)
            h2 = 1.0 / (1.0 + _EDGE_EPS2 * q ** (2 * self.order))
        return np.sqrt(np.where(f > 0.0, h2, 0.0))


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density averaged over trace sets."""

    frequencies: np.ndarray
    power: np.ndarray
    num_averages: int

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def band(self, f_lo: float, f_hi: float) -> np.ndarray:
        """Boolean mask selecting f_lo <= f <= f_hi."""
        return (self.frequencies >= f_lo) & (self.frequencies <= f_hi)


def _as_sets(traces) -> np.ndarray:
    x = np.asarray(traces, dtype=float)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D trace array, got shape {x.shape}")
    return x


def psd_estimate(traces, rate) -> Psd:
    """Average of one rectangular-window periodogram per set.

    No overlap, no segmenting: one FFT per set, matching an analyzer that
    stores whole sets and averages their spectra.  The window is
    rectangular for spectral fidelity of already-stationary noise.

    Parseval holds exactly: sum(power) * df equals the mean per-set
    variance of the input.
    """
    rate = float(getattr(rate, "sample_rate", rate))
    x = _as_sets(traces)
    x = x - x.mean(axis=1, keepdims=True)
    return _psd_from_spectra(np.fft.rfft(x, axis=1), x.shape[1], rate)


def _psd_from_spectra(spec: np.ndarray, n: int, rate: float) -> Psd:
    """Psd of per-set rfft rows ``spec`` (num_sets, n // 2 + 1) of n samples."""
    p = (np.abs(spec) ** 2).mean(axis=0) * (2.0 / (n * rate))
    p[0] *= 0.5
    if n % 2 == 0:
        p[-1] *= 0.5
    return Psd(
        frequencies=np.fft.rfftfreq(n, d=1.0 / rate),
        power=p,
        num_averages=spec.shape[0],
    )


def butterworth_bandpass(traces, spec: FilterSpec, rate) -> np.ndarray:
    """Zero-phase Butterworth bandpass via frequency-domain magnitude.

    The analog magnitude response is evaluated on the rfft grid and
    applied as a real multiplier, so the filter adds no group delay and
    cross-correlation peaks are attenuated but not skewed.

    Raises
    ------
    SpecError
        If f_hi reaches the Nyquist frequency of ``rate``.
    """
    rate = float(getattr(rate, "sample_rate", rate))
    x = np.asarray(traces, dtype=float)
    n = x.shape[-1]
    h = _bandpass_gain(spec, n, rate)
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * h, n=n, axis=-1)


def _bandpass_gain(spec: FilterSpec, n: int, rate: float) -> np.ndarray:
    """|H| of ``spec`` on the rfft grid of n samples; SpecError at Nyquist."""
    if spec.f_hi >= rate / 2.0:
        raise SpecError(
            f"f_hi={spec.f_hi} is not below the Nyquist frequency {rate / 2.0}"
        )
    return spec.magnitude(np.fft.rfftfreq(n, d=1.0 / rate))


def cross_covariance(probe, conj, max_lag: int | None = None):
    """Ensemble circular cross-covariance <dp(t) dc(t + tau)>.

    Returns (lags, curve) with integer sample lags in [-max_lag, max_lag]
    and the covariance averaged across sets.  The estimator is the biased
    (divide by N) circular form computed by FFT; with correlation times
    far below the set length the wrap bias is a (1 - |lag|/N) factor.
    """
    p = _as_sets(probe)
    c = _as_sets(conj)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {c.shape}")
    n = p.shape[1]
    p = p - p.mean(axis=1, keepdims=True)
    c = c - c.mean(axis=1, keepdims=True)
    spec = np.conj(np.fft.rfft(p, axis=1)) * np.fft.rfft(c, axis=1)
    cov = np.fft.irfft(spec, n=n, axis=1).mean(axis=0) / n
    lags = _lag_window(n, max_lag)
    return lags, cov[lags % n]


def _lag_window(n: int, max_lag: int | None) -> np.ndarray:
    """Integer lags [-max_lag, max_lag]; n // 10 by default, under n / 2."""
    if max_lag is None:
        max_lag = n // 10
    max_lag = int(min(max_lag, n // 2 - 1))
    return np.arange(-max_lag, max_lag + 1)


def _parabolic_vertex(ym1: float, y0: float, yp1: float) -> float:
    """Sub-sample offset of the extremum of a 3-point parabola."""
    denom = ym1 - 2.0 * y0 + yp1
    if denom == 0.0:
        return 0.0
    return 0.5 * (ym1 - yp1) / denom


def estimate_delay(probe, conj, rate, max_lag: int | None = None) -> float:
    """Locate the conjugate's arrival delay from the cross-covariance peak.

    The ensemble cross-covariance is interpolated around its argmax with
    a 3-point parabola, giving sub-sample resolution.  A positive result
    means the conjugate trace lags the probe.

    Raises
    ------
    NoPeak
        If the peak does not stand out from the off-peak background by
        sqrt(2 ln N) + 1.5 times its rms, N being the number of background
        lags: the largest of N Gaussian noise lags reaches about
        sqrt(2 ln N) rms, so a fixed bar would call it a peak.
    """
    rate = float(getattr(rate, "sample_rate", rate))
    lags, cov = cross_covariance(probe, conj, max_lag)
    return _delay_from_covariance(lags, cov, rate)


def _delay_from_covariance(lags: np.ndarray, cov: np.ndarray, rate: float) -> float:
    """Parabola-refined argmax of an ensemble cross-covariance, in seconds.

    Raises NoPeak when the peak does not stand out from the N lags more
    than 25 samples away by sqrt(2 ln N) + 1.5 times their rms.
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


def compensate_delay(traces, delay: float, rate) -> np.ndarray:
    """Advance a trace in time by ``delay`` with a frequency phase ramp.

    compensate_delay(x, d) followed by compensate_delay(., -d) restores x
    to machine precision; sub-sample delays are exact in the spectral
    sense (pure phase, flat magnitude).  For even-length traces a
    fractional shift has no real-valued representation at the Nyquist
    bin, so that single bin is zeroed (irrelevant for band-limited data).
    """
    rate = float(getattr(rate, "sample_rate", rate))
    x = np.asarray(traces, dtype=float)
    n = x.shape[-1]
    ramp = _delay_ramp(n, rate, delay)
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * ramp, n=n, axis=-1)


def _delay_ramp(n: int, rate: float, delay: float) -> np.ndarray:
    """Phase ramp on the rfft grid of n samples advancing a trace by delay."""
    f = np.fft.rfftfreq(n, d=1.0 / rate)
    ramp = np.exp(2j * np.pi * f * delay).astype(complex)
    if n % 2 == 0 and abs(ramp[-1].imag) > 1e-12:
        ramp[-1] = 0.0
    return ramp
