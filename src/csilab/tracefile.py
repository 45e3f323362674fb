"""Binary container for four-channel trace sets.

Layout (little endian throughout):

    offset  size  field
    0       4     magic "CSTF"
    4       2     format version (currently 1)
    6       2     channel count (always 4)
    8       4     number of trace sets
    12      8     samples per set
    20      8     sample rate, Hz (f64)
    28      2     ADC bits
    30      8     full scale, same units as dc_means (f64)
    38      32    DC means, 4 x f64, channel order p1 p2 c1 c2
    70      8     RNG seed of the acquisition
    78      4     CRC32 of bytes 0..78
    82      ...   int16 codes, C order (set, channel, sample)

The payload is a run of set-major blocks, so the blocks of a TraceSet
or a TraceStream go to disk as they are and come back with one
``readinto`` each; read_tracefile reads the whole payload with one.
Files are written to a temporary sibling and moved into place so a
crashed writer never leaves a half-written file under the final name.
Readers validate the checksum, the header fields and the byte count
before they allocate the payload; anything off raises TraceFileError
rather than returning partial data.  DC means are not checked: a dead
channel is representable, and analysis raises DcMissing on it.
"""

import contextlib
import functools
import os
import struct
import zlib

import numpy as np

from ._atomic import atomic_write
from .errors import ConfigError, TraceFileError
from .synth import BLOCK_SETS, AcquisitionConfig, TraceSet, TraceStream

MAGIC = b"CSTF"
VERSION = 1
_HEADER = struct.Struct("<4sHHIQdHd4dQ")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _CRC.size


def write_stream(traces: TraceSet | TraceStream, path) -> None:
    """Write the blocks of a TraceSet or a TraceStream to path as they
    arrive, atomically against concurrent readers of path.

    An exception from the stream, or a stream that does not hold the sets
    its header promises, leaves path as it was and no temporary behind.
    """
    with atomic_write(path, "wb") as fh:
        _write(traces, fh)


def _write(traces: TraceSet | TraceStream, fh) -> None:
    """Write the container of traces to the open binary file fh, block by
    block, and flush it to disk."""
    acq = traces.acquisition
    if acq.full_scale is None:
        raise TraceFileError("cannot serialize with unresolved full_scale")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        4,
        acq.num_sets,
        acq.samples_per_set,
        float(acq.sample_rate),
        acq.adc_bits,
        float(acq.full_scale),
        *(float(x) for x in traces.dc_means),
        acq.rng_seed,
    )
    fh.write(header)
    fh.write(_CRC.pack(zlib.crc32(header)))
    for block in traces:
        fh.write(np.ascontiguousarray(block, dtype="<i2"))
    fh.flush()
    os.fsync(fh.fileno())


def _read_header(fh, path):
    """(AcquisitionConfig, dc_means) of an open container, whose size is checked."""
    blob = fh.read(HEADER_SIZE)
    if len(blob) < HEADER_SIZE:
        raise TraceFileError(f"{path}: file shorter than a valid header")
    header = blob[: _HEADER.size]
    (stored_crc,) = _CRC.unpack_from(blob, _HEADER.size)
    if zlib.crc32(header) != stored_crc:
        # check the magic first so the error points at the actual problem
        if header[:4] != MAGIC:
            raise TraceFileError(f"{path}: bad magic {header[:4]!r}")
        raise TraceFileError(f"{path}: header checksum mismatch")
    (
        magic,
        version,
        channels,
        num_sets,
        samples,
        rate,
        adc_bits,
        full_scale,
        dc1,
        dc2,
        dc3,
        dc4,
        seed,
    ) = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise TraceFileError(f"{path}: unsupported format version {version}")
    if channels != 4:
        raise TraceFileError(f"{path}: expected 4 channels, found {channels}")
    try:
        acq = AcquisitionConfig(
            sample_rate=rate,
            samples_per_set=samples,
            num_sets=num_sets,
            adc_bits=adc_bits,
            full_scale=full_scale,
            rng_seed=seed,
        )
    except ConfigError as exc:
        raise TraceFileError(f"{path}: invalid header: {exc}") from exc
    expected = channels * num_sets * samples * 2
    body = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    if body != expected:
        raise TraceFileError(f"{path}: payload is {body} bytes, header promises {expected}")
    return acq, np.array([dc1, dc2, dc3, dc4])


def _read_blocks(fh, path, buf: np.ndarray, sets: int):
    """Yield the payload of the open container fh from its first set,
    BLOCK_SETS sets at a time, each read into buf, one buffer of
    BLOCK_SETS sets reused for every block; TraceFileError once fh is
    closed."""
    if fh.closed:
        raise TraceFileError(f"{path}: the container was closed before it was read")
    fh.seek(HEADER_SIZE)
    for lo in range(0, sets, BLOCK_SETS):
        block = buf[: min(BLOCK_SETS, sets - lo)]
        if fh.readinto(block) != block.nbytes:
            raise TraceFileError(f"{path}: payload ended early")
        yield block.astype(np.int16, copy=False)  # a copy only on big-endian hosts


def _stream(fh, path) -> TraceStream:
    """The container in the open binary file fh as a TraceStream of its
    blocks; the header and the byte count are checked first, before any
    block.  Each reading of the stream reads the payload from its first
    set into one buffer that every reading shares, so a Spectra can take
    its two passes while fh is open."""
    fh.seek(0)
    acq, dc_means = _read_header(fh, path)
    buf = np.empty((min(BLOCK_SETS, acq.num_sets), 4, acq.samples_per_set), dtype="<i2")
    return TraceStream(acq, dc_means,
                       functools.partial(_read_blocks, fh, path, buf, acq.num_sets))


@contextlib.contextmanager
def open_stream(path):
    """Open a container as a TraceStream of its blocks, which can be read
    again while it is open; closes it on exit."""
    with open(path, "rb") as fh:
        yield _stream(fh, path)


def read_tracefile(path) -> TraceSet:
    """Read and validate a trace container written by write_stream."""
    with open(path, "rb") as fh:
        acq, dc_means = _read_header(fh, path)
        # one read, straight into place: one copy of the payload, set-major
        by_set = np.empty((acq.num_sets, 4, acq.samples_per_set), dtype="<i2")
        if fh.readinto(by_set) != by_set.nbytes:
            raise TraceFileError(f"{path}: payload ended early")
    return TraceSet(
        codes=by_set.astype(np.int16, copy=False).transpose(1, 0, 2),
        dc_means=dc_means,
        acquisition=acq,
        provenance="external",
    )
