"""Four-channel photodetector trace synthesis.

Traces realize the joint statistics of a :class:`~csilab.theory.CsdModel`:
each set draws complex Gaussian spectra with the per-bin 2x2 CSD imposed
through its Hermitian square root, inverse transforms to the time domain,
splits each beam 50/50 with the correct shot-noise partition, and
digitizes.  Sets are seeded independently from a single 64-bit seed, so
results are bit-identical no matter how the work is chunked or threaded.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads these lazily; load them at import)
import numpy.random  # noqa: F401

from .errors import ClipWarning, ConfigError
from .theory import CsdModel

CHANNEL_NAMES = ("p1", "p2", "c1", "c2")
# sets per block: the unit synthesis, the container and the analysis pass on
BLOCK_SETS = 16


def _thread_count() -> int:
    """CSILAB_THREADS, or when it is unset the CPUs this process may run on."""
    raw = os.environ.get("CSILAB_THREADS", "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CSILAB_THREADS must be an integer, got {raw!r}")
    return max(1, n)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Digitizer settings; defaults match a 1 GS/s 9-bit acquisition."""

    sample_rate: float = 1e9
    samples_per_set: int = 10000
    num_sets: int = 500
    adc_bits: int = 9
    full_scale: float | None = None  # None: derived from the model at 8 sigma
    rng_seed: int = 0xC51F00D

    def __post_init__(self):
        if not (0.0 < self.sample_rate < math.inf):
            raise ConfigError(
                f"sample_rate must be finite and > 0, got {self.sample_rate}"
            )
        if self.samples_per_set < 16:
            raise ConfigError(
                f"samples_per_set must be >= 16, got {self.samples_per_set}"
            )
        if self.num_sets < 1:
            raise ConfigError(f"num_sets must be >= 1, got {self.num_sets}")
        if not (2 <= self.adc_bits <= 16):
            raise ConfigError(
                f"adc_bits must be between 2 and 16 for int16 codes, got {self.adc_bits}"
            )
        if self.full_scale is not None and not (0.0 < self.full_scale < math.inf):
            raise ConfigError(
                f"full_scale must be finite and > 0, got {self.full_scale}"
            )
        if not (0 <= self.rng_seed < 2**64):
            raise ConfigError("rng_seed must fit an unsigned 64-bit integer")

    @property
    def step(self) -> float:
        """Quantizer step: one code is this much signal."""
        if self.full_scale is None:
            raise ConfigError("full_scale unresolved; cannot dequantize")
        return self.full_scale / 2 ** (self.adc_bits - 1)

    @property
    def set_duration(self) -> float:
        return self.samples_per_set / self.sample_rate

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


@dataclass
class TraceSet:
    """Quantized AC traces of the four detector channels plus DC readings.

    ``codes`` is int16 with shape (4, num_sets, samples_per_set), channel
    order p1, p2, c1, c2; it may be a transposed view of set-major storage.
    ``dc_means`` are the bias-T DC photocurrents in
    the same units as full_scale.  ``charge_scale`` (current per photon
    flux) is kept for in-memory use by the loss hook; it does not survive
    file round-trips.  Iterating a TraceSet yields the set-major blocks a
    TraceStream yields, views of BLOCK_SETS sets each, so either one can
    be written to a container or transformed into a Spectra.
    """

    codes: np.ndarray
    dc_means: np.ndarray
    acquisition: AcquisitionConfig
    provenance: str = "external"
    charge_scale: float | None = None

    def __post_init__(self):
        if self.codes.shape[0] != 4 or self.codes.ndim != 3:
            raise ConfigError(f"codes must be (4, sets, samples), got {self.codes.shape}")
        if self.codes.dtype != np.int16:
            raise ConfigError(f"codes must be int16, got {self.codes.dtype}")
        acq = self.acquisition
        if self.codes.shape[1:] != (acq.num_sets, acq.samples_per_set):
            raise ConfigError(
                f"codes hold {self.codes.shape[1]} sets of {self.codes.shape[2]} samples, "
                f"the acquisition {acq.num_sets} of {acq.samples_per_set}"
            )
        if np.shape(self.dc_means) != (4,):
            raise ConfigError(
                f"dc_means must hold one value per channel, got shape {np.shape(self.dc_means)}"
            )
        # non-positive DC readings are representable (dead channel in an
        # external file); analysis raises DcMissing when it needs them

    def ac(self, name: str) -> np.ndarray:
        """Dequantized AC traces (num_sets, samples) of one channel."""
        return self.codes[CHANNEL_NAMES.index(name)] * self.acquisition.step

    def __iter__(self) -> Iterator[np.ndarray]:
        by_set = self.codes.transpose(1, 0, 2)
        for lo in range(0, len(by_set), BLOCK_SETS):
            yield by_set[lo : lo + BLOCK_SETS]


@dataclass
class TraceStream:
    """Trace sets as set-major blocks, with the header a TraceSet carries.

    ``blocks`` is a callable of no arguments that starts a new reading:
    each call returns an iterable of int16 arrays of shape (k, 4,
    samples_per_set), k consecutive sets from the first set on, channel
    order p1, p2, c1, c2, which is the layout of the container payload.
    Iterating the stream calls it, so every stream can be read again, one
    reading at a time.  A reading may reuse one buffer for all its blocks
    (a container's stream keeps one for every reading), so a block is
    valid only until the next one is drawn.  synthesize_stream's readings
    each make their own pool, buffers and at most one ClipWarning.  Every
    reading checks that its blocks hold num_sets sets.
    """

    acquisition: AcquisitionConfig
    dc_means: np.ndarray
    blocks: Callable[[], Iterable[np.ndarray]]
    provenance: str = "external"
    charge_scale: float | None = None

    def __iter__(self) -> Iterator[np.ndarray]:
        acq = self.acquisition
        done = 0
        for block in self.blocks():
            done += len(block)
            if (block.dtype != np.int16 or block.shape[1:] != (4, acq.samples_per_set)
                    or done > acq.num_sets):
                raise ConfigError(
                    f"block of {block.dtype} {block.shape} does not fit {acq.num_sets} "
                    f"sets of (4, {acq.samples_per_set}) int16 codes"
                )
            yield block
        if done != acq.num_sets:
            raise ConfigError(f"stream ended after {done} of {acq.num_sets} sets")


def quantize(trace, adc_bits: int, full_scale: float) -> np.ndarray:
    """Mid-tread uniform quantizer to int16 codes.

    code = clip(round(x / step), -2^(bits-1), 2^(bits-1) - 1) with
    step = full_scale / 2^(bits-1); dequantization is code * step.
    Emits ClipWarning when more than 0.1% of samples rail; a non-finite
    sample or full scale raises ConfigError.
    """
    if not (2 <= adc_bits <= 16):
        raise ConfigError(f"adc_bits must be between 2 and 16, got {adc_bits}")
    if not (math.isfinite(full_scale) and full_scale > 0.0):
        raise ConfigError(f"full_scale must be finite and > 0, got {full_scale}")
    x = np.asarray(trace, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigError("cannot quantize non-finite samples")
    codes = np.empty(x.shape, dtype=np.int16)
    half = 2 ** (adc_bits - 1)
    clipped = _rail_codes(codes, np.divide(x, full_scale / half), half)
    _warn_clipping(clipped, x.size, stacklevel=3)
    return codes


def _rail_codes(out: np.ndarray, raw: np.ndarray, half: int) -> int:
    """Round raw, in steps, to the codes -half .. half - 1 in the int16 out.

    Returns the number of samples clipped at the rails; ``raw`` is
    overwritten.  Rails are only counted and clipped when the extremes
    reach them.
    """
    np.rint(raw, out=raw)
    clipped = 0
    if raw.size and (raw.min() < -half or raw.max() > half - 1):
        clipped = int(np.count_nonzero((raw < -half) | (raw > half - 1)))
        np.clip(raw, -half, half - 1, out=raw)
    out[...] = raw
    return clipped


def _warn_clipping(clipped: int, size: int, stacklevel: int) -> None:
    """ClipWarning when more than 0.1% of size samples railed."""
    frac = clipped / size if size else 0.0
    if frac > 1e-3:
        warnings.warn(
            f"{100 * frac:.2f}% of samples clipped at the quantizer rails",
            ClipWarning,
            stacklevel=stacklevel,
        )


def _shot_sigma(dc: float, acq: AcquisitionConfig, charge_scale: float) -> float:
    """Per-sample rms of the shot noise of a beam of DC current dc."""
    sql = 2.0 * charge_scale * dc
    return math.sqrt(sql * acq.sample_rate / 2.0)


def _detect_into(out: np.ndarray, x: np.ndarray, w: np.ndarray, raw: np.ndarray, rng,
                 sigma: float, adc_bits: int, full_scale: float) -> int:
    """Split the beam trace x 50/50 and digitize the halves into out[0], out[1].

    The halves (x +- w) / 2 sum to x, and their difference, shot noise w
    of rms sigma (``_shot_sigma`` of the beam's DC), has exactly the
    parent SQL density 2 * charge_scale * dc.  One pass per half computes
    rint((x +- w) / (2 step)): halving is exact, so the codes equal
    quantize((x +- w) / 2) for every x whose half stays out of the
    subnormal range.  ``w`` and ``raw`` are float64 scratch of x's shape;
    returns the samples clipped at the rails.
    """
    half = 2 ** (adc_bits - 1)
    two_steps = 2.0 * (full_scale / half)
    rng.standard_normal(out=w)
    w *= sigma
    clipped = 0
    for row, combine in zip(out, (np.add, np.subtract)):
        combine(x, w, out=raw)
        raw /= two_steps
        clipped += _rail_codes(row, raw, half)
    return clipped


def suggest_full_scale(model: CsdModel, acq: AcquisitionConfig) -> float:
    """Full-scale range covering 8 standard deviations of the busiest channel."""
    var_p, var_c = model.channel_variances(acq.nyquist)
    return 8.0 * math.sqrt(max(var_p, var_c))


def _csd_sqrt(m: CsdModel, freqs: np.ndarray, zero_nyquist: bool):
    """Per-bin Hermitian square root of the 2x2 CSD, DC and Nyquist zeroed.

    The square root is taken of the conjugated matrix: drawing X = B z
    realizes E[conj(X_p) X_c] = (B B*)_cp, and it is conj(P) * C that the
    spectral estimators compute, so the stored cross phase must land
    there for the delay to come out with the right sign.
    """
    spp, scc, spc = m.csd(freqs)
    spp = spp.astype(float).copy()
    scc = scc.astype(float).copy()
    spc = np.conj(spc).astype(complex)
    spp[0] = scc[0] = 0.0
    spc[0] = 0.0
    if zero_nyquist:
        spp[-1] = scc[-1] = 0.0
        spc[-1] = 0.0
    det = np.maximum(spp * scc - np.abs(spc) ** 2, 0.0)
    root = np.sqrt(det)
    denom = np.sqrt(spp + scc + 2.0 * root)
    safe = np.where(denom > 0.0, denom, 1.0)
    b00 = (spp + root) / safe
    b11 = (scc + root) / safe
    b01 = spc / safe
    return b00, b01, b11


def synthesize(model: CsdModel, acq: AcquisitionConfig) -> TraceSet:
    """Generate a quantized four-channel TraceSet realizing the model.

    The blocks of synthesize_stream, gathered into one TraceSet.
    """
    stream = synthesize_stream(model, acq)
    by_set = np.empty((acq.num_sets, 4, acq.samples_per_set), dtype=np.int16)
    lo = 0
    for block in stream:
        by_set[lo : lo + len(block)] = block
        lo += len(block)
    return TraceSet(codes=by_set.transpose(1, 0, 2), dc_means=stream.dc_means,
                    acquisition=stream.acquisition, provenance=stream.provenance,
                    charge_scale=stream.charge_scale)


def synthesize_stream(model: CsdModel, acq: AcquisitionConfig) -> TraceStream:
    """Synthesize the model's trace sets as a TraceStream, BLOCK_SETS at a time.

    Each set is synthesized on a 25% longer grid and trimmed symmetrically
    so the circular wrap of the delay phase never touches the kept window.
    Per-set RNG streams come from SeedSequence(rng_seed).spawn, making the
    codes independent of the block size and the thread schedule.  Every
    check runs here, before the first block; the blocks are made as they
    are drawn.  The stream can be read again: each reading synthesizes
    the same sets anew, bit for bit, from its own root seed.  CSILAB_THREADS
    threads, by default one per CPU the process may run on, share each
    block's sets: the calling thread and a pool of threads - 1 workers
    each take the next set as they come free.  Each reading makes its own
    pool, block buffer and scratch set per thread (the normal draws of
    both beam spectra, one beam's spectrum and parent row and two noise
    rows: about 0.56 MB at 10 000 samples), and one ClipWarning, for the
    whole reading, follows its last block when more than 0.1% of its
    samples railed.
    """
    if acq.sample_rate <= 10.0 * model.bandwidth:
        raise ConfigError(
            f"sample_rate {acq.sample_rate} too low to resolve the correlation "
            f"structure; need > 10 * bandwidth = {10 * model.bandwidth}"
        )
    if abs(model.delay) >= 0.1 * acq.set_duration:
        raise ConfigError(
            f"delay {model.delay} must stay below 10% of the set duration "
            f"{acq.set_duration}"
        )
    threads = min(_thread_count(), BLOCK_SETS, acq.num_sets)
    if acq.full_scale is None:
        acq = replace(acq, full_scale=suggest_full_scale(model, acq))

    sets = acq.num_sets
    n_keep = acq.samples_per_set
    pad = int(math.ceil(0.125 * n_keep))
    n_gen = n_keep + 2 * pad
    bins = n_gen // 2 + 1
    scale = math.sqrt(n_gen * acq.sample_rate / 2.0)
    sigmas = [_shot_sigma(dc, acq, model.charge_scale) for dc in (model.probe_dc, model.conj_dc)]

    def scratch():
        # one scratch set per worker: each set's temporaries would otherwise
        # be freed to the kernel and faulted in again for the next set
        z = np.empty((2, bins, 2))
        # the parent row is free until its irfft, so its complex view holds
        # the mixing term first; 2 * bins floats cover the n_gen samples
        parent = np.empty(2 * bins)
        return (z, z.view(complex)[..., 0],  # z0 and z1, real and imaginary parts from z
                np.empty(bins, dtype=complex),  # spec
                parent, parent.view(complex),  # parent, term
                np.empty(n_keep), np.empty(n_keep))  # w, raw

    def make_sets(todo, mixes, work) -> int:
        """Synthesize the (seed, codes) pairs popped from the deque todo, which
        threads share, until it is empty; return rail hits."""
        z, z01, spec, parent, term, w, raw = work
        clipped = 0
        while True:
            try:
                seed, codes = todo.popleft()  # deque pops are thread-safe
            except IndexError:
                return clipped
            gen = np.random.default_rng(seed)
            gen.standard_normal(out=z)
            # the bits of z01 /= sqrt(2), which numpy computes as a product
            # with the reciprocal, at an eighth of the complex loop's cost
            z *= 1.0 / math.sqrt(2.0)
            # one beam at a time: a (2, n_gen) irfft runs about 10% faster,
            # but its buffer adds about 0.45 MB of peak RSS per thread
            for beam, (m0, m1) in enumerate(mixes):
                np.multiply(m0, z01[0], out=spec)
                spec += np.multiply(m1, z01[1], out=term)
                spec *= scale
                np.fft.irfft(spec, n=n_gen, out=parent[:n_gen])
                clipped += _detect_into(codes[2 * beam : 2 * beam + 2],
                                        parent[pad : pad + n_keep], w, raw, gen,
                                        sigmas[beam], acq.adc_bits, acq.full_scale)

    def blocks() -> Iterator[np.ndarray]:
        # the mixing tables and the root seed belong to one reading: the
        # stream keeps this function, so tables made outside it would stay
        # alive as long as the stream, and spawn advances the root's state
        b00, b01, b11 = _csd_sqrt(model, np.fft.rfftfreq(n_gen, d=1.0 / acq.sample_rate),
                                  zero_nyquist=(n_gen % 2 == 0))
        # a beam's spectrum is m0 z0 + m1 z1; the real b00 and b11 are stored
        # complex, or numpy would cast each into a new array at every multiply
        mixes = ((b00.astype(complex), b01), (np.conj(b01), b11.astype(complex)))
        del b00, b11  # only their complex copies are needed
        root_seed = np.random.SeedSequence(acq.rng_seed)
        buf = np.empty((min(BLOCK_SETS, sets), 4, n_keep), dtype=np.int16)
        works = [scratch() for _ in range(threads)]
        clipped = 0
        with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
            for lo in range(0, sets, BLOCK_SETS):
                block = buf[: min(BLOCK_SETS, sets - lo)]
                seeds = root_seed.spawn(len(block))  # children lo, lo + 1, ...
                # every thread, the calling one included, takes the block's next
                # set as it comes free, so a thread the host holds back delays
                # no other
                todo = deque(zip(seeds, block))
                futures = [pool.submit(make_sets, todo, mixes, work) for work in works[1:]]
                clipped += make_sets(todo, mixes, works[0])
                clipped += sum(f.result() for f in futures)
                yield block
        _warn_clipping(clipped, 4 * sets * n_keep, stacklevel=2)

    dc_means = np.array(
        [
            model.probe_dc / 2.0,
            model.probe_dc / 2.0,
            model.conj_dc / 2.0,
            model.conj_dc / 2.0,
        ]
    )
    return TraceStream(
        acquisition=acq,
        dc_means=dc_means,
        blocks=blocks,
        provenance=f"fwm:{model.digest()}",
        charge_scale=model.charge_scale,
    )


def apply_loss(
    ts: TraceSet,
    extra_eta: float,
    rng_seed: int = 0,
    charge_scale: float | None = None,
) -> TraceSet:
    """Send all four detected beams through an extra beam splitter.

    ACs scale by the intensity transmission; the open port re-injects
    vacuum so each channel keeps a true shot floor for its reduced DC.
    Normalized correlations are expected to be invariant under this.
    """
    if not (0.0 < extra_eta <= 1.0):
        raise ConfigError(f"extra_eta must be in (0, 1], got {extra_eta}")
    q = charge_scale if charge_scale is not None else ts.charge_scale
    if q is None:
        raise ConfigError(
            "charge_scale unknown (externally loaded traces); pass it explicitly"
        )
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    acq = ts.acquisition
    out = np.empty_like(ts.codes)
    mix = math.sqrt(extra_eta * (1.0 - extra_eta))
    for k, name in enumerate(CHANNEL_NAMES):
        x = ts.ac(name)
        w = rng.standard_normal(x.shape) * _shot_sigma(float(ts.dc_means[k]), acq, q)
        out[k] = quantize(extra_eta * x + mix * w, acq.adc_bits, acq.full_scale)
    return TraceSet(
        codes=out,
        dc_means=np.asarray(ts.dc_means) * extra_eta,
        acquisition=acq,
        provenance=ts.provenance + f"+loss{extra_eta:g}",
        charge_scale=q * 1.0,
    )
