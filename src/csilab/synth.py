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
import numbers
import os
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads these lazily; load them at import)
import numpy.random  # noqa: F401

from .errors import ClipWarning, ConfigError, DcMissing
from .theory import CsdModel

CHANNEL_NAMES = ("p1", "p2", "c1", "c2")
# sets per synthesis block: synthesis shares a block's sets among its threads
BLOCK_SETS = 16
# sets per analysis unit, the most a TraceStream reading yields at a time.
# At 10 000 samples a container reading's buffer holds 0.32 MB and a Spectra
# build's scratch 1.6 MB, both growing with the unit; 2-set units built
# about 6 % slower, 1-set units about 40 % slower
UNIT_SETS = 4


def _thread_count() -> int:
    """CSILAB_THREADS, or when it is unset the CPUs this process may run on.

    ConfigError for a value that is not an integer >= 1."""
    raw = os.environ.get("CSILAB_THREADS", "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CSILAB_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"CSILAB_THREADS must be at least 1, got {raw!r}")
    return n


@contextmanager
def _runner(threads: int, scratch: Callable[[], object]):
    """Yield run(units, work), which does a block's units on the calling
    thread and a pool of threads - 1 workers.

    Each thread gets the buffers one call of scratch makes, here on the
    calling thread; buffers and pool are made once and serve every call
    of run.  run calls work(*unit, buffers) for each unit, on whichever
    thread comes free first, so a thread the host holds back delays no
    other, and returns once every unit is done, so the caller may reuse
    the block's buffer.  A unit that raises stops the run: no further
    unit starts, and once every thread has stopped the first unit's
    error is raised.  Synthesis runs one unit per set on up to
    BLOCK_SETS threads, each with about 0.56 MB of scratch at 10 000
    samples.
    """
    buffers = [scratch() for _ in range(threads)]
    with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:

        def run(units, work) -> None:
            todo, errors = deque(units), []
            futures = [pool.submit(_drain, todo, work, b, errors) for b in buffers[1:]]
            _drain(todo, work, buffers[0], errors)
            for future in futures:
                future.result()  # _drain keeps a unit's error in errors
            if errors:
                raise errors[0]

        yield run


def _drain(todo: deque, work, buffers, errors: list) -> None:
    """Do the units popped from todo, which threads share, until it is
    empty or a unit has failed; a unit's error is appended to errors."""
    try:
        while not errors:
            try:
                unit = todo.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            work(*unit, buffers)
    except BaseException as exc:  # raised by run once every thread has stopped
        errors.append(exc)


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
        for name in ("samples_per_set", "num_sets", "adc_bits", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
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
class TraceStream:
    """Trace sets as set-major blocks: the one trace source type.

    ``blocks`` is a callable of no arguments that starts a new reading:
    each call returns an iterable of int16 arrays of shape (k, 4,
    samples_per_set), k consecutive sets from the first set on, channel
    order p1, p2, c1, c2, which is the layout of the container payload.
    Iterating the stream calls it, so every stream can be read again, and
    readings may overlap.  A reading checks each block as it comes and
    yields it as views of at most UNIT_SETS sets, the analysis units,
    whatever the source's block size.  A source may reuse one buffer for
    all the blocks of a reading, so a unit is valid only until the next
    one of its reading is drawn.  Every reading checks that its blocks
    hold num_sets sets.  ``dc_means`` are the bias-T DC photocurrents in
    the units of full_scale, one per channel: any other shape raises
    ConfigError.
    ``charge_scale`` (current per photon flux) serves the loss hook in
    memory and does not survive file round-trips.
    """

    acquisition: AcquisitionConfig
    dc_means: np.ndarray
    blocks: Callable[[], Iterable[np.ndarray]]
    provenance: str = "external"
    charge_scale: float | None = None

    def __post_init__(self):
        if np.shape(self.dc_means) != (4,):
            raise ConfigError(
                f"dc_means must hold one value per channel, got shape {np.shape(self.dc_means)}"
            )

    def __iter__(self) -> Iterator[np.ndarray]:
        acq, unit = self.acquisition, UNIT_SETS
        done = 0
        for block in self.blocks():
            done += len(block)
            if (block.dtype != np.int16 or block.shape[1:] != (4, acq.samples_per_set)
                    or done > acq.num_sets):
                raise ConfigError(
                    f"block of {block.dtype} {block.shape} does not fit {acq.num_sets} "
                    f"sets of (4, {acq.samples_per_set}) int16 codes"
                )
            for lo in range(0, len(block), unit):
                yield block[lo : lo + unit]
        if done != acq.num_sets:
            raise ConfigError(f"stream ended after {done} of {acq.num_sets} sets")


@dataclass(kw_only=True)
class TraceSet(TraceStream):
    """The TraceStream of quantized AC codes held in memory.

    ``codes`` is int16 with shape (4, num_sets, samples_per_set), channel
    order p1, p2, c1, c2; it may be a transposed view of set-major storage.
    A reading's one block is the set-major view of the codes the TraceSet
    was built with; dataclasses.replace makes one of new codes.
    """

    codes: np.ndarray
    blocks: Callable[[], Iterable[np.ndarray]] = field(init=False, repr=False, compare=False)

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
        super().__post_init__()
        # non-positive DC readings are representable (dead channel in an
        # external file); analysis raises DcMissing when it needs them
        by_set = self.codes.transpose(1, 0, 2)
        self.blocks = lambda: (by_set,)

    def ac(self, name: str) -> np.ndarray:
        """Dequantized AC traces (num_sets, samples) of one channel."""
        return self.codes[CHANNEL_NAMES.index(name)] * self.acquisition.step


def quantize(trace, adc_bits: int, full_scale: float) -> np.ndarray:
    """Mid-tread uniform quantizer to int16 codes.

    code = clip(round(x / step), -2^(bits-1), 2^(bits-1) - 1) with
    step = full_scale / 2^(bits-1); dequantization is code * step.
    Emits ClipWarning when more than 0.1% of samples rail; a bit count
    that is not an integer, a non-finite sample or full scale raises
    ConfigError.
    """
    if not isinstance(adc_bits, numbers.Integral) or isinstance(adc_bits, bool):
        raise ConfigError(f"adc_bits must be an integer, got {adc_bits!r}")
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
    """A quantized four-channel TraceSet realizing the model: synthesize_stream, gathered."""
    return _gather(synthesize_stream(model, acq))


def _gather(stream: TraceStream) -> TraceSet:
    """The TraceSet of one reading of stream, its units copied into one
    set-major array, the one copy of the codes it holds."""
    acq = stream.acquisition
    by_set = np.empty((acq.num_sets, 4, acq.samples_per_set), dtype=np.int16)
    lo = 0
    for unit in stream:
        by_set[lo : lo + len(unit)] = unit
        lo += len(unit)
    return TraceSet(codes=by_set.transpose(1, 0, 2), dc_means=stream.dc_means,
                    acquisition=acq, provenance=stream.provenance,
                    charge_scale=stream.charge_scale)


def synthesize_stream(model: CsdModel, acq: AcquisitionConfig) -> TraceStream:
    """Synthesize the model's trace sets as a TraceStream of BLOCK_SETS-set blocks.

    Each set is synthesized on a 25% longer grid and trimmed symmetrically
    so the circular wrap of the delay phase never touches the kept window:
    the model's largest group delay on that grid must stay below 10% of
    the set, or ConfigError names it.
    Per-set RNG streams come from SeedSequence(rng_seed).spawn, making the
    codes independent of the block size and the thread schedule.  Every
    check runs here, before the first block; the blocks are made as they
    are drawn.  The stream can be read again: each reading synthesizes
    the same sets anew, bit for bit, from its own root seed, and makes its
    own block buffer, _runner (one unit per set, on min(CSILAB_THREADS,
    BLOCK_SETS, num_sets) threads, each with one scratch set: the normal
    draws of both beam spectra, one beam's spectrum and parent row and two
    noise rows) and at most one ClipWarning, which follows its last unit
    when more than 0.1% of its samples railed.
    """
    if acq.sample_rate <= 10.0 * model.bandwidth:
        raise ConfigError(
            f"sample_rate {acq.sample_rate} too low to resolve the correlation "
            f"structure; need > 10 * bandwidth = {10 * model.bandwidth}"
        )
    sets = acq.num_sets
    n_keep = acq.samples_per_set
    pad = int(math.ceil(0.125 * n_keep))
    n_gen = n_keep + 2 * pad
    bins = n_gen // 2 + 1
    f_gen = np.fft.rfftfreq(n_gen, d=1.0 / acq.sample_rate)
    tau = float(np.abs(model.group_delay(f_gen)).max())
    if tau >= 0.1 * acq.set_duration:
        raise ConfigError(
            f"group delay {tau:.3g} s on the synthesis grid must stay below "
            f"10% of the set duration {acq.set_duration} s"
        )
    threads = min(_thread_count(), BLOCK_SETS, acq.num_sets)
    if acq.full_scale is None:
        acq = replace(acq, full_scale=suggest_full_scale(model, acq))

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
        rails = [0] * BLOCK_SETS  # samples clipped in each set of the block

        def make_set(i, seed, codes, work) -> None:
            """Synthesize set i of the block from its seed into codes."""
            z, z01, spec, parent, term, w, raw = work
            gen = np.random.default_rng(seed)
            gen.standard_normal(out=z)
            # the bits of z01 /= sqrt(2), which numpy computes as a product
            # with the reciprocal, at an eighth of the complex loop's cost
            z *= 1.0 / math.sqrt(2.0)
            rails[i] = 0
            # one beam at a time: a (2, n_gen) irfft runs about 10% faster,
            # but its buffer adds about 0.45 MB of peak RSS per thread
            for beam, (m0, m1) in enumerate(mixes):
                np.multiply(m0, z01[0], out=spec)
                spec += np.multiply(m1, z01[1], out=term)
                spec *= scale
                np.fft.irfft(spec, n=n_gen, out=parent[:n_gen])
                rails[i] += _detect_into(codes[2 * beam : 2 * beam + 2],
                                         parent[pad : pad + n_keep], w, raw, gen,
                                         sigmas[beam], acq.adc_bits, acq.full_scale)

        clipped = 0
        with _runner(threads, scratch) as run:
            for lo in range(0, sets, BLOCK_SETS):
                block = buf[: min(BLOCK_SETS, sets - lo)]
                seeds = root_seed.spawn(len(block))  # children lo, lo + 1, ...
                run(zip(range(len(block)), seeds, block), make_set)
                clipped += sum(rails[: len(block)])
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
    A source that is not a TraceSet, a TraceStream say, raises
    ConfigError, a DC mean that is negative or not finite DcMissing, and
    a charge_scale that is not finite and > 0 ConfigError, all before any
    draw.
    """
    if not isinstance(ts, TraceSet):
        raise ConfigError(f"apply_loss needs a TraceSet, got {type(ts).__name__}")
    if not (0.0 < extra_eta <= 1.0):
        raise ConfigError(f"extra_eta must be in (0, 1], got {extra_eta}")
    q = charge_scale if charge_scale is not None else ts.charge_scale
    if q is None:
        raise ConfigError(
            "charge_scale unknown (externally loaded traces); pass it explicitly"
        )
    if not (0.0 < q < math.inf):
        raise ConfigError(f"charge_scale must be finite and > 0, got {q}")
    if not all(0.0 <= dc < math.inf for dc in ts.dc_means):
        raise DcMissing(f"cannot split a DC mean that is negative or not finite: {ts.dc_means}")
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
