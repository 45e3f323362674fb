"""Output checks for the commands the benchmark runs.

Each window is the one ``tests/test_acceptance.py`` applies, unwidened.
A check returns ok and a message; the container and analysis checks also
return observations, which feed the traced run's clip and degenerate-set
fractions.
"""

import os
import re
import struct

import numpy as np

from csilab import read_tracefile

HEADER_BYTES = 82
CHANNELS = 4
CLIP_LIMIT = 1e-3

# G10 windows: V center and half-width, delay (ns) and its half-width,
# least sigma_count
V_WINDOW = (0.987, 0.01)
DELAY_NS = (8.0, 1.0)
SIGMA_MIN = 8.0

_SUMMARY = {
    "sets": r"sets: (\d+) \((\d+) degenerate\)",
    "delay_ns": r"delay estimate: (\S+) ns",
    "v": r"V = (\S+) \+/-",
    "sigma_count": r"sigma_count = (\S+)",
    "agrees": r"\(agrees: (\w+)\)",
}


def check_container(path, sets: int):
    """Exact byte count, header-shaped read-back and quantizer clipping."""
    obs = {}
    if not os.path.isfile(path):
        return False, f"{path}: missing", obs
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
    num_sets, samples = struct.unpack_from("<IQ", header, 8)
    (adc_bits,) = struct.unpack_from("<H", header, 28)
    want = HEADER_BYTES + 2 * CHANNELS * sets * samples
    if num_sets != sets or size != want:
        return False, f"{path}: {size} bytes for {num_sets} sets, want {want} for {sets}", obs
    codes = read_tracefile(path).codes
    if codes.shape != (CHANNELS, num_sets, samples):
        return False, f"{path}: read back {codes.shape}, header says {(CHANNELS, num_sets, samples)}", obs
    half = 2 ** (adc_bits - 1)
    clipped = np.count_nonzero(codes <= -half) + np.count_nonzero(codes >= half - 1)
    obs["clip_frac"] = clipped / codes.size
    obs["samples"] = samples
    if obs["clip_frac"] > CLIP_LIMIT:
        return False, f"{path}: {obs['clip_frac']:.2e} of codes at the rails", obs
    return True, "", obs


def _parse_summary(path) -> dict:
    with open(path) as fh:
        text = fh.read()
    out = {}
    for key, pattern in _SUMMARY.items():
        m = re.search(pattern, text)
        if m is None:
            raise ValueError(f"{path}: no {key!r} line")
        out[key] = m.groups() if key == "sets" else m.group(1)
    return out


def check_analysis(outdir):
    """G10 V window, sigma_count, delay window and spectral agreement from summary.txt."""
    obs = {}
    for name in ("summary.txt", "g2_curves.csv", "spectra.csv"):
        if not os.path.isfile(os.path.join(outdir, name)):
            return False, f"{outdir}: {name} missing", obs
    try:
        s = _parse_summary(os.path.join(outdir, "summary.txt"))
    except ValueError as exc:
        return False, str(exc), obs
    sets, degenerate = (int(x) for x in s["sets"])
    obs.update(sets=sets, degenerate=degenerate)
    v, delay_ns, sigma = float(s["v"]), float(s["delay_ns"]), float(s["sigma_count"])
    problems = []
    if not abs(v - V_WINDOW[0]) <= V_WINDOW[1]:
        problems.append(f"V {v} outside {V_WINDOW[0]}+/-{V_WINDOW[1]}")
    if not sigma >= SIGMA_MIN:
        problems.append(f"sigma_count {sigma} < {SIGMA_MIN}")
    if not abs(delay_ns - DELAY_NS[0]) <= DELAY_NS[1]:
        problems.append(f"delay {delay_ns} ns outside {DELAY_NS[0]}+/-{DELAY_NS[1]}")
    if s["agrees"] != "yes":
        problems.append("spectral verdict disagrees")
    return not problems, f"{outdir}: " + "; ".join(problems), obs


def check_sweep(outdir, cutoffs: int):
    """vsweep.csv holds one (cutoff, V, sigma) row per cutoff."""
    path = os.path.join(outdir, "vsweep.csv")
    if not os.path.isfile(path):
        return False, f"{path}: missing"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (cutoffs, 3):
        return False, f"{path}: {rows.shape}, want {(cutoffs, 3)}"
    return True, ""
