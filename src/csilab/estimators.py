"""Estimators for the measured twin-beam quantities.

Input is a Spectra: the sums of one or two passes over a trace source,
a TraceSet or a TraceStream of four quantized AC channels (p1, p2, c1,
c2) plus recorded DC means.  The split-detection layout makes the shot-noise
self-term drop out of every correlation: products are always taken
between different detectors, never of a channel with itself.

The violation factor V = (eps_aa + eps_bb) / (2 eps_ab) < 1 flags a
nonclassical pair; it is computed per set for statistics and pooled over
the ensemble as a cross-check.  Spectral tests integrate SQL-normalized
spectra over an analysis band; both verdicts must agree on the same band.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import)

from .dsp import FilterSpec, Psd, _bandpass_gain, _one_sided, _psd_from_sum
from .errors import BandError, ConfigError, DcMissing, DegenerateSet, NoPeak
from .synth import TraceSet, TraceStream, _thread_count

_CHUNK = 4  # sets per unit: transformed and correlated at a time, by one thread
# units in flight at most, one per thread, each with one unit's scratch
# (1.6 MB at 10 000 samples), so a build's peak stays bounded on any number
# of CPUs
_UNITS_IN_FLIGHT = 2
# a bin where every gain has |H|² at or below this changes no eps, so the
# eps sums stop after the last bin where some filter rises above it
_GAIN_FLOOR = 1e-20
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
    """The sums every estimator reads, each set's eps under declared filters, and one delay.

    Each channel is transformed once, with the DC bin zeroed, which
    removes each set's mean.  Building it sums over sets, on the full
    grid, |P|², |C|², |P1 - P2|², |C1 - C2|² and conj(P) C of the
    recombined beams P = P1 + P2 and C = C1 + C2, which only enter as
    ensemble means, and for each of the rows conj(P) C, conj(P1) P2 and
    conj(C1) C2 the per-lag sums of d and d², where d is the fluctuation
    of the set's g2 curve (its inverse transform over n and the DC
    product).  Sets are transformed in units of _CHUNK, as the trace
    source yields them, so no channel, no beam spectrum and no stream is
    held whole.  The calling thread and a pool share each block's units,
    on CSILAB_THREADS threads (by default one per CPU the process may
    run on) but at most _UNITS_IN_FLIGHT, each with one unit's buffers,
    allocated once per build.  A unit adds to each sum only after the
    previous unit has, so every sum adds the sets in order and no bit
    depends on the thread count; the next block is drawn only once the
    current block's units are done, since a stream may reuse one buffer.
    An error in a unit stops the others and is raised.

    ``filters`` lists the FilterSpecs, and None for the unfiltered V,
    whose V statistics will be asked for.  For each one and each set the
    build keeps eps_aa, eps_bb and eps_ab, three floats, and no row of
    any set: eps_aa and eps_bb come with the first pass, eps_ab, which
    needs the delay, from a second pass over the source that transforms
    only P and C, each summed from its halves in the time domain.  Every
    source can be read again, a TraceSet or any TraceStream, and each
    pass is one reading of it: a synthesis stream synthesizes its sets
    again, a container's stream reads its file again, which must still be
    open.  A reading that yields fewer sets raises ConfigError.  V for a
    filter not declared raises ConfigError naming it.  Without
    ``filters`` the build is one pass and keeps its source: V for any
    filter is then looked up in a Spectra built for those filters over
    that source, both passes again.

    Every estimator below is built from these sums: a bandpass is a real
    |H| factor, delay compensation a phase ramp, every eps of V a
    Parseval sum over bins, the cross term included, and each g2 curve a
    window of the lag sums, so no estimator needs an inverse transform
    but the delay.  ``delay`` is the conjugate's ensemble delay at the
    cross-covariance peak; without a significant peak it is 0,
    ``delay_fallback`` is true and the conjugate stays uncompensated.
    Build one per analysis and pass it to every estimator.

    Raises DcMissing unless every DC mean is finite and positive,
    ConfigError for sets shorter than MIN_SAMPLES, which leave the delay
    search too few lags to judge a peak wherever it sits, or for a
    CSILAB_THREADS that is not an integer, and SpecError for a filter not
    below the Nyquist frequency.
    """

    def __init__(self, traces: TraceSet | TraceStream,
                 filters: list[FilterSpec | None] | None = None):
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
        bins = n // 2 + 1
        # one-sided Parseval weights: mean(x * y) == Re(conj(X) Y) @ weights
        self.weights = _one_sided(n) * (2.0 / (n * n))
        self.filters = None if filters is None else list(dict.fromkeys(filters))
        w = self._weights(self.filters or [])
        self._power_sums = np.zeros((4, bins))  # |P|², |C|², |P1 - P2|², |C1 - C2|²
        self._cross_sum = np.zeros(bins, dtype=complex)  # conj(P) C
        self._lag_sums = np.zeros((2, 3, n))  # d and d² per row and lag
        self._eps = np.empty((3, len(w), sets))  # aa, bb, ab per filter and set
        chunk = min(_CHUNK, sets)
        threads = min(_thread_count(), _UNITS_IN_FLIGHT, -(-sets // chunk))
        # per thread one unit's scratch: four complex rows and one float row per set
        scratch = [(np.empty((4, chunk, bins), dtype=complex), np.empty((chunk, n)))
                   for _ in range(threads)]
        step = acq.step
        with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
            each_unit = functools.partial(_each_unit, traces, chunk, pool, scratch)
            self._split_pass(each_unit, step, w, self._eps[:2])
            self.delay, self.delay_fallback = self._ensemble_delay(self._cross_sum / sets)
            if self.filters:
                self._cross_pass(each_unit, step, w, self._eps[2])
        self._source = traces if self.filters is None else None

    def _weights(self, specs) -> list[np.ndarray]:
        """The weights of each spec's eps sums: the Parseval weights times
        its |H|² (1 for None), up to the last bin where |H|² exceeds
        _GAIN_FLOOR (every bin for None).  SpecError for a filter not below
        the Nyquist frequency."""
        out = []
        for spec in specs:
            if spec is None:
                out.append(self.weights)
            else:
                g = _bandpass_gain(spec, self.n, self.rate)
                out.append((self.weights * g * g)[: _reach(g)].copy())
        return out

    def _split_pass(self, each_unit, step: float, w: list, eps: np.ndarray) -> None:
        """Transform the four channels of every set, take the ensemble and
        lag sums and fill eps (2, filters, sets) with each set's split-pair
        sums Re(conj(P1) P2) and Re(conj(C1) C2) under the weights w.

        A unit's rows enter each of the eight sums (four power rows, the
        cross row, three lag rows) only once the previous unit's have, so
        each sum adds its sets in order however the units are threaded.
        The unit's slots hold the halves, then each beam in its first
        half's slot; its float buffer holds the dequantized codes, then
        the real parts, each curve and each power row in turn."""
        n = self.n
        bins = n // 2 + 1
        norms = ((self.dc[0] + self.dc[1]) * (self.dc[2] + self.dc[3]),
                 self.dc[0] * self.dc[1], self.dc[2] * self.dc[3])
        reach = max((x.size for x in w), default=0)
        turns = _Turns(8)  # power rows 0-3, cross row 4, lag rows 5-7

        def unit(u, lo, part, buffers):
            slots, work = buffers
            k = len(part)
            a, b, c, row = slots[:, :k]
            flat, power = work[:k], work[:k, :bins]

            def add_power(i, z):
                np.abs(z, out=power)
                np.square(power, out=power)
                with turns.turn(i, u):
                    _add_rows(self._power_sums[i], power)

            def add_curve(r):
                t = np.fft.irfft(row, n=n, axis=-1, out=flat)
                t /= n
                t /= norms[r]
                # d = (1 + t) - 1, exactly: the set's curve less 1 with the
                # curve's own rounding, so the sums over sets of d and d² give
                # its mean and spread to the last bits; raw t would not
                t += 1.0
                t -= 1.0
                with turns.turn(5 + r, u):
                    _add_rows(self._lag_sums[0, r], t)
                    _add_rows(self._lag_sums[1, r], np.square(t, out=t))

            for r, (x1, x2) in ((1, (a, b)), (2, (b, c))):
                for ch, x in zip((2 * r - 2, 2 * r - 1), (x1, x2)):
                    np.multiply(part[:, ch], step, out=flat)
                    np.fft.rfft(flat, axis=1, out=x)
                    x[:, 0] = 0.0
                np.multiply(np.conjugate(x1, out=row), x2, out=row)
                _eps_rows(row, w, work[:, :reach], eps[r - 1, :, lo : lo + k])
                add_curve(r)
                add_power(r + 1, np.subtract(x1, x2, out=row))
                add_power(r - 1, np.add(x1, x2, out=x1))  # the beam, P then C
            np.multiply(np.conjugate(a, out=row), b, out=row)
            with turns.turn(4, u):
                _add_rows(self._cross_sum, row)
            add_curve(0)

        each_unit(unit, turns)

    def _cross_pass(self, each_unit, step: float, w: list, eps: np.ndarray) -> None:
        """Fill eps (filters, sets) with each set's sum of Re(conj(P) C
        ramp) under the weights w, the ramp advancing the conjugate by the
        delay.  Each beam's halves are summed in the time domain, so a set
        takes two transforms, P and C.  Units write disjoint eps columns,
        so they share no sum."""
        n, reach = self.n, max(x.size for x in w)
        ramp = _delay_ramp(n, self.rate, self.delay)[:reach] if self.delay else None

        def unit(u, lo, part, buffers):
            slots, work = buffers
            k = len(part)
            probe, conj, rows = slots[:3, :k]
            for beam, ch in zip((probe, conj), (0, 2)):
                np.add(part[:, ch], part[:, ch + 1], out=work[:k], dtype=float)
                np.multiply(work[:k], step, out=work[:k])
                np.fft.rfft(work[:k], axis=1, out=beam)
            row = rows[:, :reach]
            np.multiply(np.conjugate(probe[:, :reach], out=row), conj[:, :reach], out=row)
            row[:, :1] = 0.0  # each set's mean, as in the first pass
            if ramp is not None:
                row *= ramp
            _eps_rows(row, w, work[:, :reach], eps[:, lo : lo + k])

        each_unit(unit, _Turns())

    def _ensemble_delay(self, cross_mean: np.ndarray) -> tuple[float, bool]:
        cov = np.fft.irfft(cross_mean, n=self.n)
        m = self.n // _LAG_SPAN
        lags = np.arange(-m, m + 1)
        try:
            return _delay_from_covariance(lags, cov[lags % self.n] / self.n, self.rate), False
        except NoPeak:
            return 0.0, True

    def _eps_of(self, specs) -> list[np.ndarray]:
        """Each spec's (3, sets) per-set eps_aa, eps_bb and eps_ab sums,
        looked up in this Spectra or, when it was built without filters,
        in one built for specs over its source."""
        if self.filters is None:
            return Spectra(self._source, specs)._eps_of(specs)
        for spec in specs:
            if spec not in self.filters:
                raise ConfigError(
                    f"{'the unfiltered V' if spec is None else spec} was not declared "
                    "when this Spectra was built; build it with that filter among "
                    "its filters"
                )
        return [self._eps[:, self.filters.index(spec)] for spec in specs]

    def _violation_stats(self, specs) -> list[dict]:
        """V statistics under each FilterSpec of ``specs``, None for no filter.

        Every eps is a Parseval sum weighted by |H|² over the bins the
        filter reaches: eps_aa and eps_bb of the split-pair rows, eps_ab of
        Re(conj(P) C ramp), the lag-0 covariance of the filtered beams
        once the conjugate is advanced by the delay.  Raises ConfigError
        for a filter the Spectra was not built for, and DegenerateSet when
        fewer than 2 sets carry a positive cross-correlation under some
        filter.
        """
        dc_p1, dc_p2, dc_c1, dc_c2 = self.dc
        out = []
        for eps in self._eps_of(specs):
            aa = eps[0] / (dc_p1 * dc_p2)
            bb = eps[1] / (dc_c1 * dc_c2)
            ab = eps[2] / ((dc_p1 + dc_p2) * (dc_c1 + dc_c2))
            valid = ab > 0.0
            num_degenerate = int(np.count_nonzero(~valid))
            if np.count_nonzero(valid) < 2:
                raise DegenerateSet(
                    f"only {np.count_nonzero(valid)} of {self.sets} sets carry a positive "
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


class _Abandoned(Exception):
    """A unit stopped because another unit of its pass failed."""


class _Turns:
    """Set order for the sums the units of a pass share.

    Unit u takes its turn at sum i only once units 0 .. u - 1 have passed
    theirs, so each sum adds its rows in set order however the units are
    threaded.  Units are handed out in order, so the first unit not done
    never waits.  fail() ends the pass: a unit waiting for a turn raises
    _Abandoned and no further unit starts.
    """

    def __init__(self, sums: int = 0):
        self._next = [0] * sums
        self._cond = threading.Condition()
        self.failed = False

    def fail(self) -> None:
        with self._cond:
            self.failed = True
            self._cond.notify_all()

    @contextmanager
    def turn(self, i: int, unit: int):
        with self._cond:
            while self._next[i] != unit:
                if self.failed:
                    raise _Abandoned
                self._cond.wait()
        yield
        with self._cond:
            self._next[i] += 1
            self._cond.notify_all()


def _each_unit(traces, size: int, pool, scratch: list, work, turns: _Turns) -> None:
    """work(unit, lo, part, buffers) for each run of at most size
    consecutive sets of traces, a unit: unit counts them from 0, lo is the
    index of the run's first set, part its set-major codes.

    The calling thread and the pool's workers, one buffers of scratch
    each, take a block's next unit as they come free.  The next block is
    drawn only once every unit of this one is done, since a stream may
    reuse one buffer for all its blocks.  A unit that raises fails turns,
    and once the block's other units have stopped, its error is raised.
    """
    unit = lo = 0
    for block in traces:
        todo = deque()
        for first in range(0, len(block), size):
            part = block[first : first + size]
            todo.append((unit, lo, part))
            unit, lo = unit + 1, lo + len(part)
        futures = [pool.submit(_drain, todo, work, buffers, turns) for buffers in scratch[1:]]
        errors = []
        try:
            _drain(todo, work, scratch[0], turns)
        except BaseException as exc:  # re-raised below, once the workers stop
            errors.append(exc)
        wait(futures)
        errors += [f.exception() for f in futures if f.exception() is not None]
        if errors:
            raise next((e for e in errors if not isinstance(e, _Abandoned)), errors[0])


def _drain(todo: deque, work, buffers, turns: _Turns) -> None:
    """Do the units popped from todo, which threads share, until it is
    empty or a unit has failed."""
    try:
        while not turns.failed:
            try:
                unit = todo.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            work(*unit, buffers)
    except BaseException:
        turns.fail()
        raise


def _eps_rows(rows: np.ndarray, w: list, real: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = Re(rows[j]) . w[i] over the bins of w[i], for each set
    j of a chunk and each filter i.

    ``real`` is a (chunk, bins) buffer for the real parts.  np.vecdot
    takes one dot product per set and filter, so no eps depends on which
    sets share its chunk or which filters share its Spectra.
    """
    k = len(rows)
    np.copyto(real[:k], rows[:, : real.shape[1]].real)
    for weights, eps in zip(w, out):
        np.vecdot(real[:k, : weights.size], weights, out=eps)


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows of ``rows`` to ``acc`` one by one, in order.

    A reduction along axis 0 adds rows to a zero start in the same
    order, so a sum built chunk by chunk is bit-identical to
    ``.sum(axis=0)`` of the whole array, and so to its ``.mean(axis=0)``
    once divided by the row count.
    """
    for row in rows:
        acc += row


def _reach(gain: np.ndarray) -> int:
    """Bins of the rfft grid up to the last one where the gain, an |H| on
    that grid, has |H|² above _GAIN_FLOOR."""
    above = np.flatnonzero(gain * gain > _GAIN_FLOOR)
    return int(above[-1]) + 1 if above.size else 0


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
    prominence = peak - _median(bg)
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


def _median(x: np.ndarray) -> float:
    """np.median of a 1-d float array, from np.partition: np.median
    imports numpy.ma, about 0.9 MB, on its first call."""
    k = x.size // 2
    if x.size % 2:
        return float(np.partition(x, k)[k])
    part = np.partition(x, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2.0)


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


def g2_curves(sp: Spectra, tau_max: float = 100e-9) -> CorrelationReport:
    """Normalized intensity correlation curves and their standard errors.

    The cross curve correlates the recombined beams, the autos correlate
    the two halves of one beam (shot noise cancels in both cases).  Each
    is read off the Spectra's lag sums: with S1 and S2 the sums over sets
    of the fluctuation d of one set's curve and of d², the mean curve is
    1 + S1 / sets and its standard error sqrt((S2 - S1² / sets) /
    (sets - 1) / sets).  The cross curve is reported against the
    raw lag axis; ``delay`` is the ensemble delay of the Spectra.  The
    unfiltered V statistics of the same ensemble are
    ``filtered_violation(sp, None)``.  Fewer than two sets raise
    DegenerateSet, since a standard error needs a spread.  The window
    spans max(4, round(tau_max * rate)) lags each side of zero; past
    (n - 1) // 2 a lag wraps round the set onto a negative one, so a
    longer window raises ConfigError, as does a tau_max that is not
    finite and > 0.
    """
    if not 0.0 < tau_max < math.inf:
        raise ConfigError(f"tau_max must be finite and > 0, got {tau_max}")
    sets = sp.sets
    if sets < 2:
        raise DegenerateSet(f"g2 standard errors need at least 2 sets, got {sets}")
    n = sp.n
    max_lag = max(4, int(round(tau_max * sp.rate)))
    if max_lag > (n - 1) // 2:
        raise ConfigError(
            f"tau_max {tau_max:g} s spans {max_lag} lags at {sp.rate:g} Hz; sets of "
            f"{n} samples hold distinct lags only up to {(n - 1) // 2}"
        )
    lags = np.arange(-max_lag, max_lag + 1)
    s1, s2 = sp._lag_sums[:, :, lags % n]
    g_mean = 1.0 + s1 / sets
    spread = np.maximum(s2 - s1 * s1 / sets, 0.0) / (sets - 1)
    g_sem = np.sqrt(spread) / math.sqrt(sets)
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
    from a smoothed copy of s_diff (window ``smooth_hz``, no smoothing
    below one bin) so single-bin estimator noise does not fake a deeper
    minimum; the reported arrays stay raw.  A smooth_hz that is not
    finite and >= 0 raises ConfigError.
    """
    if not 0.0 <= smooth_hz < math.inf:
        raise ConfigError(f"smooth_hz must be finite and >= 0, got {smooth_hz}")
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


def sweep_filters(f_hi_list, f_lo: float = 500e3, order: int = 10) -> list[FilterSpec]:
    """The bandpass of each cutoff of a sweep; BandError when there is none."""
    f_hi_list = list(f_hi_list)
    if not f_hi_list:
        raise BandError("cutoff list is empty")
    return [FilterSpec(f_hi=float(f_hi), f_lo=f_lo, order=order) for f_hi in f_hi_list]


def cutoff_sweep(
    sp: Spectra,
    f_hi_list,
    f_lo: float = 500e3,
    order: int = 10,
):
    """V statistics after bandpassing all four channels per cutoff.

    Returns an array of rows (f_hi, v_mean, v_sigma).  The delay is
    estimated once from the unfiltered ensemble so every cutoff sees the
    same alignment.  The filters are those of sweep_filters; a Spectra
    built for other filters raises ConfigError naming the first missing.
    """
    specs = sweep_filters(f_hi_list, f_lo, order)
    return np.array([(spec.f_hi, st["v_mean"], st["v_sigma"])
                     for spec, st in zip(specs, sp._violation_stats(specs))])


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
    raise DegenerateSet.  A Spectra built for filters that do not include
    ``spec`` raises ConfigError naming it.
    """
    stats = sp._violation_stats([spec])[0]
    stats["delay"] = sp.delay
    stats["delay_fallback"] = sp.delay_fallback
    return stats
