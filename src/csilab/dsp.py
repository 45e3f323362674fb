"""PSD estimation, the bandpass filter specification and the squeezing readout.

``psd_estimate`` takes real trace arrays, (num_sets, num_samples) or 1-D,
and their sample rate in Hz; transforms act along the last axis.  Spectra
follow the one-sided convention: integrating `power` over the frequency
grid returns the time-domain variance (per-set mean removed).  Filtering
and delay handling of a trace set live in ``estimators.Spectra``.
``_squeezing`` is the one squeezing readout, of a measured spectrum and
of the model's; this module imports only ``errors``.
"""

from __future__ import annotations

import numbers
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
        order = self.order
        if (not isinstance(order, numbers.Integral) or isinstance(order, bool)
                or order < 2 or order % 2):
            raise SpecError(f"filter order must be an even integer >= 2, got {order!r}")

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
    variance of the input.  Input of another shape, fewer than one set of
    two samples, a non-finite sample or a rate that is not finite and > 0
    raises ConfigError.
    """
    if not (0.0 < rate < np.inf):
        raise ConfigError(f"rate must be finite and > 0, got {rate}")
    x = np.asarray(traces, dtype=float)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise ConfigError(f"expected 1-D or 2-D trace array, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 2:
        raise ConfigError(f"need at least one set of two samples, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("cannot estimate a PSD of non-finite samples")
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


def _squeezing(f: np.ndarray, s_diff: np.ndarray, width: int = 1) -> tuple[float, float]:
    """(depth in dB below the SQL, bandwidth) of the SQL-normalized
    difference spectrum s_diff on the grid f, box-smoothed over ``width``
    bins so single-bin noise does not fake a deeper minimum: each bin is
    the mean of the bins of the grid within its window, so on a grid of
    fewer than ``width`` bins it still stands at its own frequency.  The
    depth is -10 log10 of the minimum (inf if not positive); the bandwidth
    is the first up-crossing of 1 past it, interpolated (a "last point
    below 1" would drift along noise dips), 0 if the minimum is not below
    1 and f[-1] if nothing crosses back."""
    s = s_diff
    if width > 1:
        # the full convolution, centred: mode="same" swaps in the kernel
        # when it is the longer, and returns width bins for a shorter grid
        kernel, c = np.ones(width), (width - 1) // 2
        s = (np.convolve(s, kernel)[c : c + s.size]
             / np.convolve(np.ones_like(s), kernel)[c : c + s.size])
    imin = int(np.argmin(s))
    depth = -float(10.0 * np.log10(s[imin])) if s[imin] > 0 else np.inf
    if s[imin] >= 1.0:
        return depth, 0.0
    above = np.nonzero(s[imin:] >= 1.0)[0]
    if not above.size:
        return depth, float(f[-1])
    j = imin + int(above[0])
    s0, s1 = s[j - 1], s[j]
    return depth, float(f[j - 1] + (1.0 - s0) * (f[j] - f[j - 1]) / (s1 - s0))
