"""PSD estimation and the bandpass filter specification.

``psd_estimate`` takes real trace arrays, (num_sets, num_samples) or 1-D,
and their sample rate in Hz; transforms act along the last axis.  Spectra
follow the one-sided convention: integrating `power` over the frequency
grid returns the time-domain variance (per-set mean removed).  Filtering
and delay handling of a trace set live in ``estimators.Spectra``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import)

from .errors import ConfigError, SpecError

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


def psd_estimate(traces, rate: float) -> Psd:
    """Average of one rectangular-window periodogram per set.

    No overlap, no segmenting: one FFT per set, matching an analyzer that
    stores whole sets and averages their spectra.  The window is
    rectangular for spectral fidelity of already-stationary noise.

    Parseval holds exactly: sum(power) * df equals the mean per-set
    variance of the input.  Input of another shape raises ConfigError.
    """
    x = np.asarray(traces, dtype=float)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise ConfigError(f"expected 1-D or 2-D trace array, got shape {x.shape}")
    x = x - x.mean(axis=1, keepdims=True)
    power = np.add.reduce(np.abs(np.fft.rfft(x, axis=1)) ** 2, axis=0)
    return _psd_from_sum(power, x.shape[0], x.shape[1], rate)


def _one_sided(n: int) -> np.ndarray:
    """Per-bin factor of a one-sided sum over the rfft grid of n samples.

    1 on bins whose negative-frequency twin the doubling stands for, 0.5
    on DC and, for even n, on Nyquist, which have no twin.
    """
    w = np.ones(n // 2 + 1)
    w[0] = 0.5
    if n % 2 == 0:
        w[-1] = 0.5
    return w


def _psd_from_sum(total: np.ndarray, num_sets: int, n: int, rate: float) -> Psd:
    """Psd from ``total``, the sum of |X|^2 over num_sets rfft rows of n samples."""
    p = total / num_sets * (2.0 / (n * rate)) * _one_sided(n)
    return Psd(
        frequencies=np.fft.rfftfreq(n, d=1.0 / rate),
        power=p,
        num_averages=num_sets,
    )


def _bandpass_gain(spec: FilterSpec, n: int, rate: float) -> np.ndarray:
    """|H| of ``spec`` on the rfft grid of n samples; SpecError at Nyquist."""
    if spec.f_hi >= rate / 2.0:
        raise SpecError(
            f"f_hi={spec.f_hi} is not below the Nyquist frequency {rate / 2.0}"
        )
    return spec.magnitude(np.fft.rfftfreq(n, d=1.0 / rate))
