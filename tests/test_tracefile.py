"""Binary trace container round trips and corruption handling."""

import dataclasses
import os
import struct
import sys
import threading
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csilab.dsp import FilterSpec
from csilab.errors import ConfigError, TraceFileError
from csilab import estimators
from csilab.estimators import MIN_SAMPLES, Spectra, filtered_violation
from csilab.scenarios import preset
from csilab.synth import (
    BLOCK_SETS,
    UNIT_SETS,
    AcquisitionConfig,
    TraceSet,
    TraceStream,
    synthesize,
    synthesize_stream,
)
from csilab.tracefile import (
    HEADER_SIZE,
    open_stream,
    read_tracefile,
    staged_stream,
    write_stream,
)


@pytest.fixture(scope="module")
def small_ts():
    sc = preset("G10")
    acq = AcquisitionConfig(num_sets=3, samples_per_set=256, rng_seed=7)
    return synthesize(sc.model, acq)


def test_round_trip_bit_identical(tmp_path, small_ts):
    path = tmp_path / "traces.cstf"
    write_stream(small_ts, path)
    back = read_tracefile(path)
    assert back.codes.dtype == np.int16
    assert np.array_equal(back.codes, small_ts.codes)
    assert np.array_equal(back.dc_means, small_ts.dc_means)
    a, b = small_ts.acquisition, back.acquisition
    assert (a.sample_rate, a.samples_per_set, a.num_sets) == (
        b.sample_rate,
        b.samples_per_set,
        b.num_sets,
    )
    assert (a.adc_bits, a.full_scale, a.rng_seed) == (
        b.adc_bits,
        b.full_scale,
        b.rng_seed,
    )
    assert back.provenance == "external"


def test_rewrite_same_bytes(tmp_path, small_ts):
    p1, p2 = tmp_path / "a.cstf", tmp_path / "b.cstf"
    write_stream(small_ts, p1)
    write_stream(small_ts, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_staged_stream_reads_back_what_write_stream_writes(tmp_path, small_ts):
    """The staged container is readable twice before it is renamed into
    place with write_stream's bytes; an error leaves no file at all."""
    path = tmp_path / "staged.cstf"
    with staged_stream(small_ts, path) as staged:
        assert not path.exists()
        for _ in range(2):
            assert np.array_equal(np.concatenate(list(staged)), small_ts.codes.transpose(1, 0, 2))
        assert np.array_equal(staged.dc_means, small_ts.dc_means)
    write_stream(small_ts, tmp_path / "plain.cstf")
    assert path.read_bytes() == (tmp_path / "plain.cstf").read_bytes()
    with pytest.raises(RuntimeError), staged_stream(small_ts, tmp_path / "failed.cstf"):
        raise RuntimeError
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.cstf", "staged.cstf"]


def test_unresolved_full_scale_refused(tmp_path):
    codes = np.zeros((4, 1, 16), dtype=np.int16)
    ts = TraceSet(
        codes=codes,
        dc_means=np.ones(4),
        acquisition=AcquisitionConfig(samples_per_set=16, num_sets=1),
    )
    with pytest.raises(TraceFileError, match="full_scale"):
        write_stream(ts, tmp_path / "x.cstf")


def _written(tmp_path, small_ts):
    path = tmp_path / "t.cstf"
    write_stream(small_ts, path)
    return path, bytearray(path.read_bytes())


def test_bad_magic(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    blob[:4] = b"WAVE"
    path.write_bytes(blob)
    with pytest.raises(TraceFileError, match="bad magic"):
        read_tracefile(path)


def test_unsupported_version(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    struct.pack_into("<H", blob, 4, 9)
    # keep the header CRC consistent so the version check is what fires
    struct.pack_into("<I", blob, HEADER_SIZE - 4, zlib.crc32(blob[: HEADER_SIZE - 4]))
    path.write_bytes(blob)
    with pytest.raises(TraceFileError, match="version"):
        read_tracefile(path)


def test_header_corruption(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    blob[20] ^= 0xFF  # sample rate byte
    path.write_bytes(blob)
    with pytest.raises(TraceFileError, match="header checksum"):
        read_tracefile(path)


def test_payload_runs_per_set_per_channel(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    samples = small_ts.codes.shape[2]
    raw = np.frombuffer(bytes(blob[HEADER_SIZE:]), dtype="<i2")
    # second block of the payload is set 0 of the second channel
    second = raw[samples : 2 * samples]
    assert np.array_equal(second, small_ts.codes[1, 0])


def test_truncated_payload(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceFileError, match="payload is"):
        read_tracefile(path)


@pytest.mark.parametrize("extra", [-1, 1, 4096])
def test_payload_size_must_match_header(tmp_path, small_ts, extra):
    path, blob = _written(tmp_path, small_ts)
    blob = blob[:extra] if extra < 0 else blob + b"\0" * extra
    path.write_bytes(blob)
    with pytest.raises(TraceFileError, match="payload is"):
        read_tracefile(path)


def test_read_holds_one_copy_of_the_payload(tmp_path):
    acq = AcquisitionConfig(num_sets=50, samples_per_set=4096, full_scale=1.0)
    codes = np.random.default_rng(3).integers(-256, 256, size=(4, 50, 4096), dtype=np.int16)
    path = tmp_path / "t.cstf"
    write_stream(TraceSet(codes=codes, dc_means=np.ones(4), acquisition=acq), path)
    tracemalloc.start()
    try:
        back = read_tracefile(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.codes, codes)
    assert peak < 1.2 * codes.nbytes


def test_truncated_header(tmp_path, small_ts):
    path, blob = _written(tmp_path, small_ts)
    path.write_bytes(blob[:40])
    with pytest.raises(TraceFileError, match="shorter"):
        read_tracefile(path)


def test_no_temp_left_behind(tmp_path, small_ts):
    path = tmp_path / "t.cstf"
    write_stream(small_ts, path)
    assert [p.name for p in tmp_path.iterdir()] == ["t.cstf"]


def test_concurrent_writers_leave_one_readable_file(tmp_path):
    sc = preset("G10")
    candidates = [
        synthesize(sc.model, AcquisitionConfig(num_sets=n, samples_per_set=4096, rng_seed=n))
        for n in (6, 9)
    ]
    path = tmp_path / "traces.cstf"
    errors = []

    def writer(ts, barrier):
        barrier.wait()
        try:
            write_stream(ts, path)
        except Exception as exc:  # collected: a thread cannot fail the test
            errors.append(exc)

    for _ in range(5):
        barrier = threading.Barrier(2)
        threads = [threading.Thread(target=writer, args=(ts, barrier)) for ts in candidates]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert errors == []
    back = read_tracefile(path)
    assert any(np.array_equal(back.codes, ts.codes) for ts in candidates)
    assert os.listdir(tmp_path) == ["traces.cstf"]


@settings(max_examples=25, deadline=None, database=None)
@given(
    num_sets=st.integers(1, 5),
    samples=st.integers(16, 300),
    adc_bits=st.integers(2, 16),
    dc_means=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    seed=st.integers(0, 2**64 - 1),
)
def test_round_trip_exact_for_random_containers(
    tmp_path_factory, num_sets, samples, adc_bits, dc_means, seed
):
    acq = AcquisitionConfig(samples_per_set=samples, num_sets=num_sets, adc_bits=adc_bits,
                            full_scale=2.5, rng_seed=seed)
    top = 2 ** (adc_bits - 1)
    codes = np.random.default_rng(seed).integers(
        -top, top, size=(4, num_sets, samples), dtype=np.int16
    )
    ts = TraceSet(codes=codes, dc_means=np.array(dc_means), acquisition=acq)
    path = tmp_path_factory.mktemp("round_trip") / "t.cstf"
    write_stream(ts, path)
    back = read_tracefile(path)
    assert back.codes.dtype == np.int16
    assert np.array_equal(back.codes, codes)
    assert np.array_equal(back.dc_means, ts.dc_means)
    assert back.acquisition == acq


_FIELDS = struct.Struct("<4sHHIQdHd4dQ")  # the header layout before its CRC
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None, database=None)
@given(
    version=st.one_of(st.just(1), st.integers(0, 2**16 - 1)),
    channels=st.one_of(st.just(4), st.integers(0, 2**16 - 1)),
    num_sets=st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
    samples=st.one_of(st.integers(0, 80), st.integers(0, 2**64 - 1)),
    rate=st.one_of(st.just(1e9), _ANY_FLOAT),
    adc_bits=st.one_of(st.integers(0, 20), st.integers(0, 2**16 - 1)),
    full_scale=st.one_of(st.just(2.5), _ANY_FLOAT),
    dc_means=st.lists(_ANY_FLOAT, min_size=4, max_size=4),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_any_header_gives_trace_file_error_or_trace_set(
    tmp_path_factory, version, channels, num_sets, samples, rate, adc_bits,
    full_scale, dc_means, seed, data,
):
    """Header fields under a valid CRC, then truncation or one flipped byte."""
    header = _FIELDS.pack(b"CSTF", version, channels, num_sets, samples, rate,
                          adc_bits, full_scale, *dc_means, seed)
    promised = 8 * num_sets * samples
    size = promised if promised <= 8 * 3 * 80 else data.draw(st.integers(0, 64))
    blob = bytearray(header + struct.pack("<I", zlib.crc32(header)) + bytes(size))
    damage = data.draw(st.sampled_from(["none", "truncate", "flip"]))
    if damage == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("header") / "t.cstf"
    path.write_bytes(blob)
    try:
        ts = read_tracefile(path)
    except TraceFileError:
        header_valid = (
            version == 1 and channels == 4 and num_sets >= 1 and samples >= 16
            and 2 <= adc_bits <= 16 and 0.0 < rate < np.inf and 0.0 < full_scale < np.inf
        )
        assert damage != "none" or not header_valid or size != promised
        return
    assert isinstance(ts, TraceSet)
    assert ts.codes.shape == (4, num_sets, samples)


@settings(max_examples=20, deadline=None, database=None)
@given(
    num_sets=st.one_of(st.just(1), st.integers(2, 40).filter(lambda k: k % BLOCK_SETS)),
    samples=st.integers(MIN_SAMPLES, 1500),
    seed=st.integers(0, 2**64 - 1),
    threads=st.sampled_from([None, "1", "2", "3"]),
)
def test_streaming_changes_no_byte_and_no_bit(tmp_path_factory, num_sets, samples, seed,
                                              threads):
    """Synthesis blocks streamed into a container give the bytes of the
    whole TraceSet written at once, and a Spectra built from the
    container's blocks, which its second pass reads again, equals one
    built from the TraceSet read whole."""
    model = preset("G10").model
    acq = AcquisitionConfig(num_sets=num_sets, samples_per_set=samples, rng_seed=seed)
    folder = tmp_path_factory.mktemp("stream")
    streamed, whole = folder / "streamed.cstf", folder / "whole.cstf"
    with mock.patch.dict(os.environ):
        os.environ["CSILAB_THREADS"] = "1"
        write_stream(synthesize(model, acq), whole)
        if threads is None:  # the default: one thread per usable CPU
            del os.environ["CSILAB_THREADS"]
        else:
            os.environ["CSILAB_THREADS"] = threads
        write_stream(synthesize_stream(model, acq), streamed)
    assert streamed.read_bytes() == whole.read_bytes()

    filters = [None, FilterSpec(f_hi=15e6)]
    with open_stream(streamed) as stream:
        from_blocks = Spectra(stream, filters)
    from_set = Spectra(read_tracefile(whole), filters)
    for name in ("_eps", "_power_sums", "_cross_sum", "_lag_sums"):
        assert np.array_equal(getattr(from_blocks, name), getattr(from_set, name)), name
    assert from_blocks.delay == from_set.delay
    assert from_blocks.delay_fallback == from_set.delay_fallback


def test_failing_producer_leaves_target_as_it_was(tmp_path, small_ts):
    path = tmp_path / "t.cstf"
    path.write_bytes(b"old")
    by_set = small_ts.codes.transpose(1, 0, 2)

    def blocks():
        for i in range(len(by_set)):  # one set per block
            yield by_set[i : i + 1]
        raise RuntimeError("producer died")  # after every set was written

    stream = TraceStream(small_ts.acquisition, small_ts.dc_means, blocks)
    with pytest.raises(RuntimeError, match="producer died"):
        write_stream(stream, path)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["t.cstf"]


@pytest.mark.parametrize("sets", [2, 4])
def test_stream_of_another_set_count_than_its_header_is_refused(tmp_path, small_ts, sets):
    acq = dataclasses.replace(small_ts.acquisition, num_sets=sets)
    stream = TraceStream(acq, small_ts.dc_means, lambda: small_ts)  # 3 sets
    with pytest.raises(ConfigError, match="sets"):
        write_stream(stream, tmp_path / "t.cstf")
    assert os.listdir(tmp_path) == []


def test_payload_shrinking_after_open_raises(tmp_path):
    acq = AcquisitionConfig(num_sets=2 * BLOCK_SETS + 1, samples_per_set=MIN_SAMPLES, rng_seed=5)
    path = tmp_path / "t.cstf"
    write_stream(synthesize(preset("G10").model, acq), path)
    with open_stream(path) as stream:
        os.truncate(path, os.path.getsize(path) - 2)  # checked size, then lost a sample
        with pytest.raises(TraceFileError, match="payload ended early"):
            Spectra(stream)


def test_stream_reads_again_only_while_open(tmp_path):
    """A container's stream gives its sets again from the first one each
    time it is iterated, and a closed one raises a typed error: so a
    Spectra built from it outside open_stream fails with TraceFileError,
    not with an I/O error of the file."""
    acq = AcquisitionConfig(num_sets=BLOCK_SETS + 3, samples_per_set=MIN_SAMPLES, rng_seed=8)
    path = tmp_path / "t.cstf"
    ts = synthesize(preset("G10").model, acq)
    write_stream(ts, path)
    with open_stream(path) as stream:
        for _ in range(2):
            assert np.array_equal(np.concatenate([b.copy() for b in stream]),
                                  ts.codes.transpose(1, 0, 2))
    with pytest.raises(TraceFileError, match="closed"):
        Spectra(stream, [FilterSpec(f_hi=15e6)])


def test_spectra_without_filters_outlives_its_container(tmp_path):
    """A Spectra built without filters keeps no source: built inside
    open_stream, it gives the delay, g2 curves and spectra of the
    TraceSet's, bit for bit, once the container is closed.  Like the
    TraceSet's, it gives no V: unfiltered or under a FilterSpec, V raises
    ConfigError naming the filter that was not declared."""
    acq = AcquisitionConfig(num_sets=BLOCK_SETS + 3, samples_per_set=MIN_SAMPLES, rng_seed=8)
    path = tmp_path / "t.cstf"
    ts = synthesize(preset("G10").model, acq)
    write_stream(ts, path)
    with open_stream(path) as stream:
        sp = Spectra(stream)
    whole = Spectra(ts)
    assert (sp.delay, sp.delay_fallback) == (whole.delay, whole.delay_fallback)
    curves = [estimators.g2_curves(x, 30e-9) for x in (sp, whole)]
    spectra = [estimators.normalized_spectra(x) for x in (sp, whole)]
    for name, value in vars(curves[0]).items():
        np.testing.assert_array_equal(value, getattr(curves[1], name), strict=True)
    for name in ("s_p_norm", "s_c_norm", "s_diff_norm", "squeezing_db_max",
                 "squeezing_bandwidth"):
        np.testing.assert_array_equal(getattr(spectra[0], name), getattr(spectra[1], name),
                                      strict=True)
    for x in (sp, whole):
        with pytest.raises(ConfigError, match="the unfiltered V was not declared"):
            filtered_violation(x, None)
        with pytest.raises(ConfigError, match=r"f_hi=15000000\.0.* was not declared"):
            filtered_violation(x, FilterSpec(f_hi=15e6))


def test_overlapping_readings_of_a_container_each_read_the_file(tmp_path):
    """Each reading of a container's stream has a buffer of its own and
    reads every block, one analysis unit, from that block's offset, so
    readings may overlap: on a container of three units, reading a's
    third block, drawn after reading b has drawn its first, is the file's
    third unit, and it leaves b's first block as it was."""
    acq = AcquisitionConfig(num_sets=3 * UNIT_SETS, samples_per_set=MIN_SAMPLES, rng_seed=9)
    path = tmp_path / "t.cstf"
    write_stream(synthesize(preset("G10").model, acq), path)
    by_set = np.fromfile(path, dtype="<i2", offset=HEADER_SIZE).reshape(-1, 4, MIN_SAMPLES)
    expected = [by_set[lo : lo + UNIT_SETS] for lo in range(0, len(by_set), UNIT_SETS)]
    with open_stream(path) as stream:
        a = iter(stream)
        for i in range(2):
            assert np.array_equal(next(a), expected[i])
        b = iter(stream)
        b_first = next(b)
        assert np.array_equal(next(a), expected[2])
        assert np.array_equal(b_first, expected[0])
        for i in (1, 2):
            assert np.array_equal(next(b), expected[i])
        assert next(a, None) is None and next(b, None) is None


def test_reading_a_container_holds_one_unit_of_codes(tmp_path):
    """A reading of a container's stream reads one analysis unit at a
    time into one buffer: reading every block of a container of more than
    two synthesis blocks peaks at about one unit of codes, not at one
    synthesis block."""
    samples = 4096
    acq = AcquisitionConfig(num_sets=2 * BLOCK_SETS + 3, samples_per_set=samples, full_scale=1.0)
    codes = np.random.default_rng(4).integers(-256, 256, size=(4, acq.num_sets, samples),
                                              dtype=np.int16)
    path = tmp_path / "t.cstf"
    write_stream(TraceSet(codes=codes, dc_means=np.ones(4), acquisition=acq), path)
    unit = UNIT_SETS * 4 * samples * 2  # bytes of one unit's int16 codes
    with open_stream(path) as stream:
        tracemalloc.start()
        try:
            sets = sum(len(block) for block in stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sets == acq.num_sets
    assert unit <= peak < 1.25 * unit


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_threaded_build_from_a_container_changes_no_bit(tmp_path, monkeypatch, threads):
    """A container's stream reads every block into one buffer, so each
    block's units must be done before the next block is read.  A Spectra
    built from the stream with CSILAB_THREADS at 1, 2 or 3, threads
    switching as often as possible, equals one built from the TraceSet
    at 1, bit for bit."""
    sc = preset("G10")
    acq = dataclasses.replace(sc.acquisition, num_sets=2 * BLOCK_SETS + 3, rng_seed=11)
    ts = synthesize(sc.model, acq)
    path = tmp_path / "t.cstf"
    write_stream(ts, path)
    filters = [None, FilterSpec(f_hi=15e6)]
    monkeypatch.setenv("CSILAB_THREADS", "1")
    from_set = Spectra(ts, filters)
    monkeypatch.setenv("CSILAB_THREADS", threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open_stream(path) as stream:
            from_blocks = Spectra(stream, filters)
    finally:
        sys.setswitchinterval(interval)
    for name in ("_eps", "_power_sums", "_cross_sum", "_lag_sums"):
        assert np.array_equal(getattr(from_blocks, name), getattr(from_set, name)), name
    assert (from_blocks.delay, from_blocks.delay_fallback) == (from_set.delay,
                                                               from_set.delay_fallback)
