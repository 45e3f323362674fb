"""Tests of trace synthesis: statistics fidelity, determinism, quantizer."""

import ast
import dataclasses
import inspect
import math
import os
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csilab import synth
from csilab.dsp import psd_estimate
from csilab.errors import ClipWarning, ConfigError, DcMissing
from csilab.estimators import Spectra
from csilab.scenarios import preset, preset_names
from csilab.synth import (
    AcquisitionConfig,
    TraceSet,
    _detect_into,
    _shot_sigma,
    apply_loss,
    quantize,
    suggest_full_scale,
    synthesize,
)
from csilab.theory import CsdModel, ExcessNoiseSpec, SqueezeParams
from slow_reference import coherent_traces, split_and_detect

RATE = 1e9


def model_g10(delay=8e-9, eta=0.8, **kw):
    return CsdModel(
        SqueezeParams.from_gain(10.0, alpha=100.0),
        20e6,
        probe_dc=1.0,
        delay=delay,
        eta=eta,
        **kw,
    )


def small_acq(**kw):
    kw.setdefault("sample_rate", RATE)
    kw.setdefault("samples_per_set", 4096)
    kw.setdefault("num_sets", 64)
    kw.setdefault("rng_seed", 7)
    return AcquisitionConfig(**kw)


@pytest.fixture(scope="module")
def ts_g10():
    """One medium-size synthesis shared by the statistics tests."""
    return synthesize(model_g10(), small_acq(num_sets=500))


def in_band(psd, f_lo, f_hi):
    return (psd.frequencies >= f_lo) & (psd.frequencies <= f_hi)


def block_mean(x, width):
    usable = (x.size // width) * width
    return x[:usable].reshape(-1, width).mean(axis=1)


class TestFidelity:
    def test_parent_spectra_match_model(self, ts_g10):
        """Measured PSDs of the recombined beams track the CSD model to 5%."""
        m = model_g10()
        acq = ts_g10.acquisition
        for names, pick in ((("p1", "p2"), 0), (("c1", "c2"), 1)):
            total = ts_g10.ac(names[0]) + ts_g10.ac(names[1])
            psd = psd_estimate(total, acq.sample_rate)
            band = in_band(psd, 500e3, 40e6)
            want = m.csd(psd.frequencies[band])[pick].real
            got = block_mean(psd.power[band], 16)
            ref = block_mean(want, 16)
            assert np.all(np.abs(got / ref - 1.0) < 0.05), names

    def test_sql_channels_are_flat_white(self, ts_g10):
        """p1 - p2 must sit at the probe SQL independent of frequency."""
        m = model_g10()
        acq = ts_g10.acquisition
        diff = ts_g10.ac("p1") - ts_g10.ac("p2")
        psd = psd_estimate(diff, acq.sample_rate)
        band = in_band(psd, 500e3, 400e6)  # way beyond the gain line
        blocks = block_mean(psd.power[band], 64)
        assert np.all(np.abs(blocks / m.sql_probe - 1.0) < 0.05)

    def test_difference_spectrum_tracks_uncompensated_model(self, ts_g10):
        """Raw difference noise sits where the model's cos(2 pi f tau) says.

        The delay costs real squeezing even below 3 MHz because the lost
        fraction of the cross term scales with the full beam noise, not
        with the squeezed floor.
        """
        m = model_g10()
        acq = ts_g10.acquisition
        probe = ts_g10.ac("p1") + ts_g10.ac("p2")
        conj = ts_g10.ac("c1") + ts_g10.ac("c2")
        psd = psd_estimate(probe - conj, acq.sample_rate)
        band = in_band(psd, 600e3, 3e6)
        level = psd.power[band].mean() / (m.sql_probe + m.sql_conj)
        _, _, want = m.normalized_spectra(psd.frequencies[band], compensated=False)
        assert np.isclose(level, want.mean(), rtol=0.07)
        assert level < 0.5  # still clearly squeezed in this band

    def test_delay_recovered(self, ts_g10):
        sp = Spectra(ts_g10)
        assert not sp.delay_fallback
        assert abs(sp.delay - 8e-9) < 1e-9

    def test_per_set_means_vanish(self, ts_g10):
        """Stationarity: per-set AC means are zero within 5 standard errors.

        The proper SE of a correlated-sample mean is sqrt(S(0+) / 2T),
        where S(0+) is the channel PSD at low frequency; the white-noise
        sigma/sqrt(N) would be ~3x too small for these colored traces.
        """
        m = model_g10()
        acq = ts_g10.acquisition
        s_p, s_c, _ = m.normalized_spectra(np.array([acq.sample_rate / 4096]))
        floor = {
            "p1": (s_p[0] + 1.0) / 4.0 * m.sql_probe,
            "c1": (s_c[0] + 1.0) / 4.0 * m.sql_conj,
        }
        for name in ("p1", "p2", "c1", "c2"):
            x = ts_g10.ac(name)
            se = math.sqrt(floor[name[0] + "1"] / (2.0 * acq.set_duration))
            assert np.all(np.abs(x.mean(axis=1)) < 5.0 * se)

    def test_dc_means_recorded_as_exact_halves(self, ts_g10):
        model = model_g10()
        assert ts_g10.dc_means[0] == ts_g10.dc_means[1] == model.probe_dc / 2.0
        assert ts_g10.dc_means[2] == ts_g10.dc_means[3] == model.conj_dc / 2.0
        assert ts_g10.provenance.startswith("fwm:")


class TestDeterminism:
    def test_bit_identical_repeat(self):
        a = synthesize(model_g10(), small_acq(num_sets=8))
        b = synthesize(model_g10(), small_acq(num_sets=8))
        assert np.array_equal(a.codes, b.codes)
        assert a.acquisition.full_scale == b.acquisition.full_scale

    def test_seed_changes_output(self):
        a = synthesize(model_g10(), small_acq(num_sets=4, rng_seed=1))
        b = synthesize(model_g10(), small_acq(num_sets=4, rng_seed=2))
        assert not np.array_equal(a.codes, b.codes)

    def test_set_prefix_stable_under_num_sets(self):
        a = synthesize(model_g10(), small_acq(num_sets=3))
        b = synthesize(model_g10(), small_acq(num_sets=6))
        assert np.array_equal(a.codes, b.codes[:, :3, :])

    def test_thread_schedule_irrelevant(self, monkeypatch):
        monkeypatch.setenv("CSILAB_THREADS", "1")
        a = synthesize(model_g10(), small_acq(num_sets=6))
        monkeypatch.setenv("CSILAB_THREADS", "3")
        b = synthesize(model_g10(), small_acq(num_sets=6))
        assert np.array_equal(a.codes, b.codes)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        threads=st.sampled_from([None, "1", "2", "3"]),
        num_sets=st.integers(min_value=1, max_value=7),
        samples=st.integers(min_value=96, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        data=st.data(),
    )
    def test_codes_independent_of_threads_and_set_count(self, threads, num_sets, samples,
                                                        seed, data):
        """Threads take the sets of a block as they come free, each with its
        own scratch; no thread count and no set count may change a set's
        codes."""
        model = model_g10()
        acq = small_acq(num_sets=num_sets, samples_per_set=samples, rng_seed=seed)
        k = data.draw(st.integers(min_value=1, max_value=num_sets), label="k")
        interval = sys.getswitchinterval()
        with mock.patch.dict(os.environ):
            os.environ["CSILAB_THREADS"] = "1"
            serial = synthesize(model, acq).codes
            if threads is None:  # the default: one thread per usable CPU
                del os.environ["CSILAB_THREADS"]
            else:
                os.environ["CSILAB_THREADS"] = threads
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            try:
                threaded = synthesize(model, acq).codes
                prefix = synthesize(model, dataclasses.replace(acq, num_sets=k)).codes
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial)
        assert np.array_equal(prefix, serial[:, :k])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_reading_of_a_stream_synthesizes_the_same_sets(self, monkeypatch, threads):
        """A synthesis stream can be read again: each reading starts from a
        root seed of its own, so it yields the same blocks bit for bit, and
        makes its own mixing tables, so the stream holds no table between
        readings (less than one complex row of the synthesis grid)."""
        monkeypatch.setenv("CSILAB_THREADS", threads)
        acq = small_acq(num_sets=2 * synth.BLOCK_SETS + 3, samples_per_set=1024)
        stream = synth.synthesize_stream(model_g10(), acq)
        first, second = ([block.copy() for block in stream] for _ in range(2))
        assert [b.shape[0] for b in first] == [synth.BLOCK_SETS, synth.BLOCK_SETS, 3]
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a, b)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream = synth.synthesize_stream(model_g10(), acq)
            assert sum(len(block) for block in stream) == acq.num_sets
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < (1024 + 2 * 128) // 2 * 16  # one complex row of the 1280-sample grid

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_two_inverse_transforms_per_set_on_any_thread_count(self, monkeypatch, threads):
        """Synthesis makes exactly two irfft calls per set, one per beam,
        each of the synthesis grid's points, however many threads share
        the sets.  The counter holds a lock, so no count is lost between
        threads switching as often as possible."""
        monkeypatch.setenv("CSILAB_THREADS", threads)
        acq = small_acq(num_sets=2 * synth.BLOCK_SETS + 3, samples_per_set=1024)
        irfft, lock, points = np.fft.irfft, threading.Lock(), []

        def counted_irfft(a, n=None, *args, **kwargs):
            with lock:
                points.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stream = synth.synthesize_stream(model_g10(), acq)
            assert sum(len(block) for block in stream) == acq.num_sets
        finally:
            sys.setswitchinterval(interval)
        assert points == [1024 + 2 * 128] * (2 * acq.num_sets)  # the padded grid

    @pytest.mark.parametrize("threads", ["many", "0", "-2"])
    def test_bad_thread_env(self, monkeypatch, threads):
        monkeypatch.setenv("CSILAB_THREADS", threads)
        with pytest.raises(ConfigError, match="CSILAB_THREADS"):
            synthesize(model_g10(), small_acq(num_sets=2))


class TestDefaultThreads:
    """Unset CSILAB_THREADS means one thread per CPU the process may run on."""

    @staticmethod
    def threads_used(monkeypatch, acq):
        """(codes, threads) of one synthesis: the calling thread plus the
        workers of the pool it starts, if any."""
        pools = []

        class CountingPool(synth.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(synth, "ThreadPoolExecutor", CountingPool)
        codes = synthesize(model_g10(), acq).codes
        assert len(pools) <= 1  # one pool for the whole run
        return codes, 1 + sum(pools)

    @pytest.mark.parametrize("cpus, num_sets, expected", [
        (1, 16, 1), (2, 16, 2), (64, 16, 16),  # at most one thread per set of a block
        (1, 3, 1), (2, 3, 2), (64, 3, 3),  # and no more threads than sets
    ])
    def test_thread_count_follows_cpu_affinity(self, monkeypatch, cpus, num_sets, expected):
        monkeypatch.delenv("CSILAB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        acq = small_acq(num_sets=num_sets, samples_per_set=256)
        codes, threads = self.threads_used(monkeypatch, acq)
        assert threads == expected
        monkeypatch.setenv("CSILAB_THREADS", "1")
        assert np.array_equal(codes, synthesize(model_g10(), acq).codes)

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delenv("CSILAB_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        _, threads = self.threads_used(monkeypatch, small_acq(num_sets=4, samples_per_set=256))
        assert threads == expected

    def test_calling_thread_makes_a_share(self, monkeypatch):
        """With two threads the caller and one pool worker both make sets.
        Each thread's first set waits for the other thread's first set, so
        the caller cannot finish the block before the worker starts, and a
        thread that makes no set breaks the barrier and fails the run."""
        monkeypatch.setenv("CSILAB_THREADS", "2")
        workers, detect = set(), synth._detect_into
        first_sets = threading.Barrier(2, timeout=10)

        def recorded(*args):
            if threading.get_ident() not in workers:
                workers.add(threading.get_ident())
                first_sets.wait()
            return detect(*args)

        monkeypatch.setattr(synth, "_detect_into", recorded)
        _, threads = self.threads_used(monkeypatch, small_acq(num_sets=16, samples_per_set=2048))
        assert threads == 2
        assert len(workers) == 2 and threading.get_ident() in workers

    def test_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv("CSILAB_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        _, threads = self.threads_used(monkeypatch, small_acq(num_sets=4, samples_per_set=256))
        assert threads == 1


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_failing_set_ends_the_reading_and_frees_every_thread(monkeypatch, threads):
    """A _detect_into that raises on set 5 of a 16-set block ends the
    reading with its own error.  No set starts once it has raised (a
    set starts by seeding its generator), so the other threads do not
    finish the block, and the reading ends within the join's timeout
    and leaves no thread behind."""
    monkeypatch.setenv("CSILAB_THREADS", threads)
    current, failed, late = threading.local(), threading.Event(), []
    default_rng, detect = np.random.default_rng, synth._detect_into

    def seeded(seed):
        if failed.is_set():
            late.append(seed.spawn_key[-1])
        current.set = seed.spawn_key[-1]  # children of the root: the set's index
        return default_rng(seed)

    def fifth_fails(*args):
        if current.set == 5:
            failed.set()
            raise FloatingPointError("set 5")
        return detect(*args)

    monkeypatch.setattr(np.random, "default_rng", seeded)
    monkeypatch.setattr(synth, "_detect_into", fifth_fails)
    before = set(threading.enumerate())
    raised = []

    def read():
        try:
            synthesize(model_g10(), small_acq(num_sets=16, samples_per_set=2048))
        except FloatingPointError as exc:
            raised.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert [str(exc) for exc in raised] == ["set 5"]
    assert late == []
    assert set(threading.enumerate()) == before


def test_one_function_constructs_a_thread_pool():
    """In all of csilab one call constructs a ThreadPoolExecutor, in
    synth._runner, which synthesis runs its sets on, so the CountingPool
    patches of synth.ThreadPoolExecutor see every pool."""
    pools = [
        (path.stem, node.lineno)
        for path in sorted(Path(synth.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ThreadPoolExecutor"
    ]
    lines, first = inspect.getsourcelines(synth._runner)
    assert [module for module, _ in pools] == ["synth"]
    assert first <= pools[0][1] < first + len(lines)


def test_one_trace_source_type():
    """Synthesis, a container and codes in memory are read through one
    type: a TraceSet is a TraceStream, TraceStream is the one class in
    all of csilab that defines __iter__, and no annotation names both."""
    assert issubclass(TraceSet, synth.TraceStream)
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(synth.__file__).parent.glob("*.py"))}
    iterables = [
        (module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "__iter__" for item in node.body)
    ]
    assert iterables == [("synth", "TraceStream")]
    annotations = [
        (module, ast.unparse(note)) for module, tree in trees.items()
        for node in ast.walk(tree)
        for note in ([node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
                     else [node.returns] if isinstance(node, ast.FunctionDef) else [])
        if note is not None
        and {"TraceSet", "TraceStream"} <= {n.id for n in ast.walk(note) if isinstance(n, ast.Name)}
    ]
    assert annotations == []


class TestQuantizer:
    def test_zero_maps_to_zero_code(self):
        assert quantize(np.zeros(4), 9, 1.0).tolist() == [0, 0, 0, 0]

    def test_rails(self):
        fs = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClipWarning)
            codes = quantize(np.array([fs - 1e-9, -fs, 10 * fs, -10 * fs]), 9, fs)
        assert codes.tolist() == [255, -256, 255, -256]

    def test_dequantization_step(self):
        fs = 1.0
        step = fs / 256
        x = np.array([0.4, -0.7, 0.123])
        codes = quantize(x, 9, fs)
        assert np.all(np.abs(codes * step - x) <= step / 2 + 1e-12)

    def test_clip_warning_threshold(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClipWarning)
            quantize(x, 9, 8.0)  # 8 sigma: no clipping expected
            with pytest.raises(ClipWarning):
                quantize(x, 9, 2.0)  # 2 sigma: ~5% clip fraction

    def test_quantization_noise_level(self):
        """Gaussian at sigma = FS/8 gains step^2/12 of white noise power."""
        rng = np.random.default_rng(42)
        fs = 8.0
        x = rng.standard_normal((100, 4096))
        err = quantize(x, 9, fs) * (fs / 256) - x
        assert np.isclose(np.var(err), (fs / 256) ** 2 / 12.0, rtol=0.05)
        psd = psd_estimate(err, RATE)
        blocks = block_mean(psd.power[1:], 256)
        assert np.all(np.abs(blocks / (np.var(err) * 2 / RATE) - 1.0) < 0.1)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            quantize(np.zeros(4), 1, 1.0)
        with pytest.raises(ConfigError):
            quantize(np.zeros(4), 9, 0.0)

    @pytest.mark.parametrize("full_scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_full_scale_raises(self, full_scale):
        """A NaN full scale passes a ``<= 0`` check and an infinite one
        maps every sample to code 0; both must be refused."""
        with pytest.raises(ConfigError, match="full_scale"):
            quantize([0.1, 0.2], 9, full_scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_raises(self, bad):
        """A NaN sample would become code 0 and an infinite one a rail code,
        each a silent wrong number."""
        with pytest.raises(ConfigError, match="non-finite"):
            quantize(np.array([0.1, bad, 0.2]), 9, 1.0)

    @pytest.mark.parametrize("bits", [9.5, 9.0, np.float64(9.0), True],
                             ids=["9.5", "9.0", "float64", "bool"])
    def test_bit_count_must_be_an_integer(self, bits):
        """9.5 bits would put the codes on a +-2^8.5 grid; AcquisitionConfig's
        integer rule holds here too."""
        with pytest.raises(ConfigError, match="adc_bits must be an integer"):
            quantize(np.array([0.1, 0.2, -0.3]), bits, 1.0)

    def test_numpy_integer_bit_count_is_an_integer(self):
        assert quantize(np.array([0.5]), np.int64(9), 1.0).tolist() == [128]


class TestSplit:
    Q = 1e-9

    def test_sum_reconstructs_parent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2048))
        h1, h2 = split_and_detect(x, 1.0, small_acq(), self.Q, rng)
        assert np.allclose(h1 + h2, x, rtol=0, atol=1e-12)

    def test_zero_input_halves_are_shot_noise(self):
        acq = small_acq()
        rng = np.random.default_rng(4)
        dc = 2.0
        h1, h2 = split_and_detect(np.zeros((200, 2048)), dc, acq, self.Q, rng)
        sql = 2.0 * self.Q * dc
        psd = psd_estimate(h1 - h2, acq.sample_rate)
        assert np.isclose(psd.power[1:].mean(), sql, rtol=0.02)
        # halves anti-correlate exactly for a dark input
        assert np.isclose(np.mean(h1 * h2) / np.var(h1), -1.0, atol=0.05)

    def test_correlated_readout_suppresses_shot_term(self):
        """<dh1 dh2> estimates a quarter of the above-shot (classical) power.

        The input trace is the beam's full fluctuation: classical excess
        plus its own shot floor.  The anti-correlated partition noise
        cancels the floor in the product, leaving the normally ordered
        part only.
        """
        acq = small_acq()
        rng = np.random.default_rng(5)
        dc = 1.0
        shot_var = 2.0 * self.Q * dc * acq.sample_rate / 2.0
        excess = rng.standard_normal((400, 2048)) * math.sqrt(3.0 * shot_var)
        shot = rng.standard_normal((400, 2048)) * math.sqrt(shot_var)
        h1, h2 = split_and_detect(excess + shot, dc, acq, self.Q, rng)
        got = np.mean(h1 * h2)
        assert np.isclose(got, np.var(excess) / 4.0, rtol=0.05)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        adc_bits=st.integers(2, 16),
        full_scale=st.floats(1e-4, 1e4),
        rms=st.floats(1e-6, 1e6),
        dc=st.floats(1e-12, 1e12),  # shot sigma sqrt(dc) at Q = 1e-9 and 1 GS/s
        seed=st.integers(0, 2**64 - 1),
        edge=st.sampled_from([None, "top", "bottom"]),
    )
    @example(adc_bits=2, full_scale=1e-4, rms=1e3, dc=1e6, seed=0, edge=None)  # all rail
    @example(adc_bits=16, full_scale=1.0, rms=0.3, dc=0.01, seed=1, edge=None)  # none does
    def test_fused_detect_equals_split_then_quantize(self, adc_bits, full_scale, rms, dc,
                                                      seed, edge):
        """Synthesis splits and quantizes a beam in one pass per half; its
        codes and rail count must equal split_and_detect, then quantize.
        ``edge`` sets the full scale so that the largest (smallest) half
        sample lands one step past the top (bottom) rail, and nothing
        beyond it."""
        half = 2 ** (adc_bits - 1)
        acq = small_acq(adc_bits=adc_bits, full_scale=1.0)
        x = np.random.default_rng([seed, 0]).standard_normal(999) * rms
        halves = split_and_detect(x, dc, acq, self.Q, np.random.default_rng([seed, 1]))
        if edge == "top":
            full_scale = float(max(h.max() for h in halves))
        elif edge == "bottom":
            full_scale = -float(min(h.min() for h in halves)) * half / (half + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClipWarning)
            want = np.stack([quantize(h, adc_bits, full_scale) for h in halves])
        steps = [np.rint(h / (full_scale / half)) for h in halves]
        want_clipped = sum(int(np.count_nonzero((s < -half) | (s > half - 1))) for s in steps)

        got = np.empty((2, x.size), dtype=np.int16)
        clipped = _detect_into(got, x, np.empty(x.size), np.empty(x.size),
                               np.random.default_rng([seed, 1]),
                               _shot_sigma(dc, acq, self.Q), adc_bits, full_scale)
        assert np.array_equal(got, want)
        assert clipped == want_clipped

    def test_rejects_dark_beam(self):
        with pytest.raises(ConfigError):
            split_and_detect(np.zeros(16), 0.0, small_acq(), self.Q)


def test_clip_warning_exported():
    import csilab

    assert csilab.ClipWarning is ClipWarning and "ClipWarning" in csilab.__all__


def test_star_import_binds_every_public_name():
    """``from csilab import *`` binds each name of csilab.__all__, once
    listed, so no name is listed that the package does not define."""
    import csilab

    namespace = {}
    exec("from csilab import *", namespace)
    assert set(csilab.__all__) <= namespace.keys()
    assert len(set(csilab.__all__)) == len(csilab.__all__)


class TestCoherent:
    def test_no_cross_correlation_and_sql_spectra(self):
        acq = small_acq(num_sets=300)
        ts = coherent_traces(acq, probe_dc=1.0, conj_dc=0.8)
        probe = ts.ac("p1") + ts.ac("p2")
        conj = ts.ac("c1") + ts.ac("c2")
        sql_p = psd_estimate(ts.ac("p1") - ts.ac("p2"), RATE)
        tot_p = psd_estimate(probe, RATE)
        ratio = tot_p.power[1:].mean() / sql_p.power[1:].mean()
        assert abs(ratio - 1.0) < 0.02
        # cross covariance at zero lag, normalized: no correlation
        c = np.mean(probe * conj) / (np.std(probe) * np.std(conj))
        assert abs(c) < 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            coherent_traces(small_acq(), probe_dc=0.0)


class TestLossHook:
    def test_loss_maps_normalized_excess(self, ts_g10):
        """SQL-relative noise follows s -> 1 + eta'(s - 1) under extra loss.

        (The loss-invariant quantities are the normalized correlations;
        those are exercised with the estimators.)
        """
        lossier = apply_loss(ts_g10, 0.5, rng_seed=11)
        acq = ts_g10.acquisition

        def norm_probe(ts):
            tot = psd_estimate(ts.ac("p1") + ts.ac("p2"), acq.sample_rate)
            sql = psd_estimate(ts.ac("p1") - ts.ac("p2"), acq.sample_rate)
            band = in_band(tot, 1e6, 30e6)
            return tot.power[band].sum() / sql.power[band].sum()

        before = norm_probe(ts_g10)
        after = norm_probe(lossier)
        assert np.isclose(after - 1.0, 0.5 * (before - 1.0), rtol=0.03)
        assert np.allclose(lossier.dc_means, np.asarray(ts_g10.dc_means) * 0.5)

    def test_sql_tracks_reduced_dc(self, ts_g10):
        lossier = apply_loss(ts_g10, 0.5, rng_seed=11)
        acq = ts_g10.acquisition
        sql = psd_estimate(lossier.ac("p1") - lossier.ac("p2"), acq.sample_rate)
        want = 2.0 * ts_g10.charge_scale * (ts_g10.dc_means[0] + ts_g10.dc_means[1]) * 0.5
        band = in_band(sql, 1e6, 400e6)
        assert np.isclose(sql.power[band].mean(), want, rtol=0.02)

    def test_requires_charge_scale(self, ts_g10):
        stripped = TraceSet(
            codes=ts_g10.codes,
            dc_means=ts_g10.dc_means,
            acquisition=ts_g10.acquisition,
            provenance="external",
        )
        with pytest.raises(ConfigError):
            apply_loss(stripped, 0.5)

    @pytest.mark.parametrize("dc", [-1.0, np.nan, np.inf])
    def test_refuses_a_dc_mean_it_cannot_split(self, dc):
        """A negative DC has no shot noise to re-inject and a non-finite one
        no number to scale; both are refused before any draw."""
        ts = coherent_traces(small_acq(num_sets=2, samples_per_set=256))
        bad = dataclasses.replace(ts, dc_means=np.array([1.0, 1.0, dc, 1.0]))
        with pytest.raises(DcMissing, match="DC mean"):
            apply_loss(bad, 0.5, charge_scale=ts.charge_scale)

    @pytest.mark.parametrize("q", [-1.0, 0.0, np.nan, np.inf])
    def test_refuses_a_charge_scale_that_is_not_finite_and_positive(self, q):
        ts = coherent_traces(small_acq(num_sets=2, samples_per_set=256))
        with pytest.raises(ConfigError, match="charge_scale must be finite and > 0"):
            apply_loss(ts, 0.5, charge_scale=q)

    def test_refuses_a_stream_before_any_draw(self, monkeypatch):
        """A TraceStream holds no codes to split: apply_loss names its type
        in a ConfigError before it seeds a generator."""
        stream = synth.synthesize_stream(model_g10(), small_acq(num_sets=2,
                                                                samples_per_set=256))

        def no_draw(*args, **kwargs):
            raise AssertionError("apply_loss drew before refusing its source")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ConfigError, match="needs a TraceSet, got TraceStream"):
            apply_loss(stream, 0.5)


def test_traceset_iterates_as_set_major_block_views(monkeypatch):
    """A TraceSet yields what a TraceStream yields: (k, 4, samples) blocks of
    at most BLOCK_SETS sets, read when iteration starts, here as views of
    the codes."""
    ts = coherent_traces(small_acq(num_sets=5, samples_per_set=256))
    monkeypatch.setattr(synth, "BLOCK_SETS", 2)
    blocks = list(ts)
    assert [b.shape for b in blocks] == [(2, 4, 256), (2, 4, 256), (1, 4, 256)]
    assert all(np.shares_memory(b, ts.codes) for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), ts.codes.transpose(1, 0, 2))


class TestValidation:
    def test_from_params_hits_ratio_exactly(self):
        m = model_g10()
        ts_ratio = m.conj_dc / m.probe_dc
        from csilab.theory import mean_photon_numbers

        n_p, n_c = mean_photon_numbers(m.params)
        assert abs(ts_ratio - n_c / n_p) < 1e-15

    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_traceset_rejects_non_int16_codes(self, dtype):
        with pytest.raises(ConfigError, match="int16"):
            TraceSet(
                codes=np.zeros((4, 1, 16), dtype=dtype),
                dc_means=np.ones(4),
                acquisition=small_acq(samples_per_set=16, num_sets=1),
            )

    @pytest.mark.parametrize("shape", [(4, 2, 16), (4, 1, 32)])
    def test_traceset_rejects_codes_the_acquisition_does_not_describe(self, shape):
        with pytest.raises(ConfigError, match="acquisition"):
            TraceSet(
                codes=np.zeros(shape, dtype=np.int16),
                dc_means=np.ones(4),
                acquisition=small_acq(samples_per_set=16, num_sets=1),
            )

    @pytest.mark.parametrize("dc_means", [np.ones(3), np.ones((4, 1)), np.float64(1.0)])
    def test_traceset_rejects_misshapen_dc_means(self, dc_means):
        with pytest.raises(ConfigError, match="dc_means"):
            TraceSet(
                codes=np.zeros((4, 1, 16), dtype=np.int16),
                dc_means=dc_means,
                acquisition=small_acq(samples_per_set=16, num_sets=1),
            )

    @pytest.mark.parametrize("dc_means", [np.ones(3), np.ones((2, 2)), np.ones(5)])
    def test_stream_rejects_misshapen_dc_means(self, dc_means):
        """Every trace source holds one DC mean per channel, checked when
        it is built: three would otherwise fail the container's header
        write and the Spectra's normalization, far from the cause."""
        with pytest.raises(ConfigError, match="dc_means must hold one value per channel"):
            synth.TraceStream(small_acq(samples_per_set=16, num_sets=1), dc_means, lambda: ())

    def test_sample_rate_guard(self):
        with pytest.raises(ConfigError):
            synthesize(model_g10(), small_acq(sample_rate=1e8))

    def test_delay_guard(self):
        m = model_g10(delay=600e-9)
        with pytest.raises(ConfigError):
            synthesize(m, small_acq(samples_per_set=4096))

    def test_group_delay_guard(self):
        """The pad must cover the largest group delay on the synthesis
        grid, not only the line-centre delay: G2 with a 200 ns dispersion
        swing reaches 136 ns on the 1 250-sample grid of 1 000-sample sets,
        past 10 % of the set, though its line-centre delay is 13 ns."""
        sc = preset("G2")
        model = dataclasses.replace(sc.model, delay_dispersion=200e-9)
        acq = dataclasses.replace(sc.acquisition, samples_per_set=1000, num_sets=2)
        with pytest.raises(ConfigError, match="group delay 1.36e-07 s"):
            synth.synthesize_stream(model, acq)

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_stay_inside_the_group_delay_guard(self, name):
        sc = preset(name)
        acq = sc.acquisition
        n_gen = acq.samples_per_set + 2 * math.ceil(0.125 * acq.samples_per_set)
        tau = sc.model.group_delay(np.fft.rfftfreq(n_gen, d=1.0 / acq.sample_rate))
        assert np.abs(tau).max() < 0.05 * acq.set_duration

    @pytest.mark.parametrize(
        "kw",
        [
            dict(adc_bits=0),
            dict(adc_bits=20),
            dict(num_sets=0),
            dict(samples_per_set=4),
            dict(full_scale=-1.0),
        ],
    )
    def test_acquisition_field_validation(self, kw):
        with pytest.raises(ConfigError):
            small_acq(**kw)

    @pytest.mark.parametrize("name, bad, good", [
        ("samples_per_set", 1000.0, 1000), ("num_sets", 2.0, 2), ("adc_bits", 9.0, 9),
        ("rng_seed", 1.5, 1), ("num_sets", True, 1),
    ])
    def test_counts_must_be_integers(self, name, bad, good):
        """A float or a bool count is refused when the acquisition is built,
        not later by synthesis, the container writer or SeedSequence; a
        numpy integer is taken."""
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            small_acq(**{name: bad})
        assert getattr(small_acq(**{name: np.int64(good)}), name) == good

    def test_full_scale_suggestion_avoids_clipping(self):
        model = model_g10(excess=ExcessNoiseSpec(conj_level=2.0))
        acq = small_acq(num_sets=16)
        fs = suggest_full_scale(model, acq)
        assert fs > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClipWarning)
            synthesize(model, acq)  # must not warn at 8 sigma


class TestQuantizeInWorker:
    """Synthesis quantizes per set; codes must equal quantizing a float stage."""

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    @pytest.mark.parametrize("num_sets", [1, 5, 16])
    def test_codes_match_float_staged_reference(self, monkeypatch, threads, num_sets):
        import slow_reference

        if threads is None:
            monkeypatch.delenv("CSILAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("CSILAB_THREADS", threads)
        acq = small_acq(num_sets=num_sets, rng_seed=1234)
        ts = synthesize(model_g10(), acq)
        assert ts.codes.dtype == np.int16
        assert np.array_equal(ts.codes, slow_reference.staged_codes(model_g10(), acq))

    def test_small_full_scale_warns_exactly_once(self, monkeypatch):
        import slow_reference

        monkeypatch.setenv("CSILAB_THREADS", "2")
        acq = small_acq(num_sets=8)
        fs = suggest_full_scale(model_g10(), acq) / 8.0  # one sigma: heavy clipping
        acq = dataclasses.replace(acq, full_scale=fs)
        messages = []
        for make in (synthesize, slow_reference.staged_codes):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                make(model_g10(), acq)
            messages.append([str(w.message) for w in caught
                             if issubclass(w.category, ClipWarning)])
        # one warning for the whole array, with the whole-array fraction
        assert len(messages[0]) == 1
        assert messages[0] == messages[1]

    def test_each_reading_of_a_stream_warns_once(self, monkeypatch):
        monkeypatch.setenv("CSILAB_THREADS", "2")
        acq = small_acq(num_sets=8)
        acq = dataclasses.replace(acq, full_scale=suggest_full_scale(model_g10(), acq) / 8.0)
        stream = synth.synthesize_stream(model_g10(), acq)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                for _ in stream:
                    pass
        assert [w.category for w in caught] == [ClipWarning, ClipWarning]
        assert caught[0].message.args == caught[1].message.args
