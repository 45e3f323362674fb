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

Files are written to a temporary sibling and moved into place so a
crashed writer never leaves a half-written file under the final name.
Readers validate the checksum, the header fields and the byte count
before they allocate the payload; anything off raises TraceFileError
rather than returning partial data.  DC means are not checked: a dead
channel is representable, and analysis raises DcMissing on it.
"""

import os
import struct
import zlib

import numpy as np

from ._atomic import atomic_write
from .errors import ConfigError, TraceFileError
from .synth import AcquisitionConfig, TraceSet

MAGIC = b"CSTF"
VERSION = 1
_HEADER = struct.Struct("<4sHHIQdHd4dQ")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _CRC.size


def write_tracefile(ts: TraceSet, path) -> None:
    """Serialize a TraceSet; atomic against concurrent readers of path."""
    acq = ts.acquisition
    if acq.full_scale is None:
        raise TraceFileError("cannot serialize with unresolved full_scale")
    codes = ts.codes.astype("<i2", copy=False)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        codes.shape[0],
        codes.shape[1],
        codes.shape[2],
        float(acq.sample_rate),
        acq.adc_bits,
        float(acq.full_scale),
        *(float(x) for x in ts.dc_means),
        acq.rng_seed,
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(_CRC.pack(zlib.crc32(header)))
        # payload runs per set, per channel, per sample; one set at a time
        # keeps a transposed copy of the whole payload out of memory
        for i in range(codes.shape[1]):
            fh.write(np.ascontiguousarray(codes[:, i]))
        fh.flush()
        os.fsync(fh.fileno())


def read_tracefile(path) -> TraceSet:
    """Read and validate a trace container written by write_tracefile."""
    with open(path, "rb") as fh:
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
        # one set at a time, straight into the channel-major codes: one copy
        codes = np.empty((channels, num_sets, samples), dtype="<i2")
        for i in range(num_sets):
            for row in codes[:, i]:
                if fh.readinto(row) != row.nbytes:
                    raise TraceFileError(f"{path}: payload ended early")
    codes = codes.astype(np.int16, copy=False)  # a copy only on big-endian hosts
    return TraceSet(
        codes=codes,
        dc_means=np.array([dc1, dc2, dc3, dc4]),
        acquisition=acq,
        provenance="external",
    )
