"""Slow reference implementations the one-pass code must reproduce, and
the null-beam fixture.

These are time-domain estimators and the float-staged synthesis the
package used before its analysis was rebuilt on one rfft per channel:
every channel is dequantized, bandpassed and delay-compensated in the
time domain and correlated sample by sample over the whole set (lag 0
for V, a full FFT cross-covariance for the g2 curves), and synthesis
stages the whole payload as float64 before quantizing it in one call.  The bandpass, the delay estimate and
the delay compensation are this module's own copies of the time-domain
functions the package once exported, so a bug in the kernel's private
helpers cannot hide by appearing on both sides of a comparison.
``split_and_detect`` is the 50/50 beam split that synthesis fuses with
quantization, and ``coherent_traces`` the null fixture built on it: two
uncorrelated shot-noise-limited beams, split and digitized one half at
a time.  Tests compare the fast code against them and analyze the
fixture; nothing in the package imports this module.
"""

import math
from dataclasses import replace

import numpy as np

from csilab.dsp import FilterSpec, psd_estimate
from csilab.errors import ConfigError, DcMissing, DegenerateSet, NoPeak, SpecError
from csilab.synth import (
    AcquisitionConfig,
    TraceSet,
    _csd_sqrt,
    _shot_sigma,
    quantize,
    suggest_full_scale,
)


def channels(ts):
    if ts.dc_means is None or np.any(np.asarray(ts.dc_means) <= 0.0):
        raise DcMissing("trace set carries no usable DC means")
    return ts.ac("p1"), ts.ac("p2"), ts.ac("c1"), ts.ac("c2")


def butterworth_bandpass(x, spec, rate):
    """Zero-phase bandpass: the analog |H| of spec as a real rfft multiplier."""
    if spec.f_hi >= rate / 2.0:
        raise SpecError(
            f"f_hi={spec.f_hi} is not below the Nyquist frequency {rate / 2.0}"
        )
    n = x.shape[-1]
    h = spec.magnitude(np.fft.rfftfreq(n, d=1.0 / rate))
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * h, n=n, axis=-1)


def compensate_delay(x, delay, rate):
    """Advance x by delay with a phase ramp; even n zeroes a fractional Nyquist bin."""
    n = x.shape[-1]
    f = np.fft.rfftfreq(n, d=1.0 / rate)
    ramp = np.exp(2j * np.pi * f * delay).astype(complex)
    if n % 2 == 0 and abs(ramp[-1].imag) > 1e-12:
        ramp[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * ramp, n=n, axis=-1)


def estimate_delay(probe, conj, rate):
    """Parabola-refined argmax of the ensemble circular cross-covariance.

    Searches lags within n // 10 of zero; raises NoPeak unless the peak
    beats the lags more than 25 samples from it by sqrt(2 ln N) + 1.5
    times their rms.
    """
    n = probe.shape[1]
    p = probe - probe.mean(axis=1, keepdims=True)
    c = conj - conj.mean(axis=1, keepdims=True)
    spec = np.conj(np.fft.rfft(p, axis=1)) * np.fft.rfft(c, axis=1)
    full = np.fft.irfft(spec, n=n, axis=1).mean(axis=0) / n
    max_lag = int(min(n // 10, n // 2 - 1))
    lags = np.arange(-max_lag, max_lag + 1)
    cov = full[lags % n]

    i = int(np.argmax(cov))
    peak = cov[i]
    bg = cov[np.abs(lags - lags[i]) > 25]
    if bg.size < 8:
        raise NoPeak("not enough off-peak lags to judge significance")
    prominence = peak - float(np.median(bg))
    noise = float(np.std(bg))
    bar = math.sqrt(2.0 * math.log(bg.size)) + 1.5
    if noise > 0.0 and prominence < bar * noise:
        raise NoPeak("peak does not stand out from the background")
    offset = 0.0
    if 0 < i < cov.size - 1:
        ym1, yp1 = cov[i - 1], cov[i + 1]
        denom = ym1 - 2.0 * peak + yp1
        if denom != 0.0:
            offset = 0.5 * (ym1 - yp1) / denom
    return (lags[i] + offset) / rate


def per_set_curves(x, y, max_lag):
    """Per-set circular cross-covariance rows over lags [-max_lag, max_lag]."""
    n = x.shape[1]
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    spec = np.conj(np.fft.rfft(x, axis=1)) * np.fft.rfft(y, axis=1)
    cov = np.fft.irfft(spec, n=n, axis=1) / n
    lags = np.arange(-max_lag, max_lag + 1)
    return lags, cov[:, lags % n]


def ensemble_delay(probe, conj, rate):
    try:
        return estimate_delay(probe, conj, rate)
    except NoPeak:
        return 0.0


def lag0_covariance(x, y):
    """Per-set covariance of x and y at lag 0, over every sample of the set."""
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    return np.mean(x * y, axis=1)


def violation_stats(probe, conj, p1, p2, c1, c2, dc_means, rate, delay):
    """V statistics of beams already filtered; eps_ab is the lag-0 covariance
    of the probe and the conjugate advanced by the delay."""
    dc_p1, dc_p2, dc_c1, dc_c2 = (float(v) for v in dc_means)
    conj_aligned = compensate_delay(conj, delay, rate) if delay else conj
    eps_ab = lag0_covariance(probe, conj_aligned) / ((dc_p1 + dc_p2) * (dc_c1 + dc_c2))
    eps_aa = lag0_covariance(p1, p2) / (dc_p1 * dc_p2)
    eps_bb = lag0_covariance(c1, c2) / (dc_c1 * dc_c2)

    valid = eps_ab > 0.0
    num_degenerate = int(np.count_nonzero(~valid))
    if np.count_nonzero(valid) < 2:
        raise DegenerateSet(f"only {np.count_nonzero(valid)} valid sets")
    v_per_set = (eps_aa[valid] + eps_bb[valid]) / (2.0 * eps_ab[valid])
    v_mean = float(v_per_set.mean())
    v_sigma = float(v_per_set.std(ddof=1))
    v_sem = v_sigma / math.sqrt(v_per_set.size)
    return dict(
        eps_aa=float(eps_aa[valid].mean()),
        eps_bb=float(eps_bb[valid].mean()),
        eps_ab_peak=float(eps_ab[valid].mean()),
        v_per_set=v_per_set,
        v_mean=v_mean,
        v_sigma=v_sigma,
        v_sem=v_sem,
        sigma_count=abs(1.0 - v_mean) / v_sem if v_sem > 0 else math.inf,
        violated=v_mean < 1.0,
        v_pooled=float(
            (eps_aa[valid].mean() + eps_bb[valid].mean()) / (2.0 * eps_ab[valid].mean())
        ),
        num_degenerate=num_degenerate,
    )


def filtered_violation(ts, spec):
    rate = ts.acquisition.sample_rate
    p1, p2, c1, c2 = channels(ts)
    delay = ensemble_delay(p1 + p2, c1 + c2, rate)
    fp1, fp2, fc1, fc2 = (butterworth_bandpass(x, spec, rate) for x in (p1, p2, c1, c2))
    stats = violation_stats(fp1 + fp2, fc1 + fc2, fp1, fp2, fc1, fc2, ts.dc_means, rate, delay)
    stats["delay"] = delay
    return stats


def cutoff_sweep(ts, f_hi_list, f_lo=500e3, order=10):
    rate = ts.acquisition.sample_rate
    p1, p2, c1, c2 = channels(ts)
    delay = ensemble_delay(p1 + p2, c1 + c2, rate)
    rows = []
    for f_hi in f_hi_list:
        spec = FilterSpec(f_hi=float(f_hi), f_lo=f_lo, order=order)
        fp1, fp2, fc1, fc2 = (butterworth_bandpass(x, spec, rate) for x in (p1, p2, c1, c2))
        stats = violation_stats(
            fp1 + fp2, fc1 + fc2, fp1, fp2, fc1, fc2, ts.dc_means, rate, delay
        )
        rows.append((float(f_hi), stats["v_mean"], stats["v_sigma"]))
    return np.array(rows)


def g2_curves(ts, tau_max=100e-9):
    """Mean curves, their SEMs, the delay and the unfiltered V statistics."""
    rate = ts.acquisition.sample_rate
    p1, p2, c1, c2 = channels(ts)
    dc_p1, dc_p2, dc_c1, dc_c2 = (float(v) for v in ts.dc_means)
    probe, conj = p1 + p2, c1 + c2
    max_lag = max(4, int(round(tau_max * rate)))
    lags, cross = per_set_curves(probe, conj, max_lag)
    _, auto_p = per_set_curves(p1, p2, max_lag)
    _, auto_c = per_set_curves(c1, c2, max_lag)
    root_n = math.sqrt(cross.shape[0])
    curves = {
        "g2_ab": 1.0 + cross / ((dc_p1 + dc_p2) * (dc_c1 + dc_c2)),
        "g2_aa": 1.0 + auto_p / (dc_p1 * dc_p2),
        "g2_bb": 1.0 + auto_c / (dc_c1 * dc_c2),
    }
    out = {"tau_grid": lags / rate}
    for name, g in curves.items():
        out[name] = g.mean(axis=0)
        out[name + "_sem"] = g.std(axis=0, ddof=1) / root_n
    out["delay"] = ensemble_delay(probe, conj, rate)
    out.update(violation_stats(probe, conj, p1, p2, c1, c2, ts.dc_means, rate, out["delay"]))
    return out


def normalized_spectra(ts, compensate=True):
    """SQL-normalized spectra arrays, the SQL PSDs and the delay used."""
    rate = ts.acquisition.sample_rate
    p1, p2, c1, c2 = channels(ts)
    probe, conj = p1 + p2, c1 + c2
    sql_p = psd_estimate(p1 - p2, rate)
    sql_c = psd_estimate(c1 - c2, rate)
    sql_diff = sql_p.power + sql_c.power
    delay = ensemble_delay(probe, conj, rate) if compensate else 0.0
    conj_used = compensate_delay(conj, delay, rate) if delay else conj
    out = {"frequencies": sql_p.frequencies, "sql_p": sql_p.power,
           "sql_c": sql_c.power, "delay": delay}
    # the DC bin holds rounding residue of the mean removal; callers skip it
    with np.errstate(divide="ignore", invalid="ignore"):
        out["s_p_norm"] = psd_estimate(probe, rate).power / sql_p.power
        out["s_c_norm"] = psd_estimate(conj, rate).power / sql_c.power
        out["s_diff_norm"] = psd_estimate(probe - conj_used, rate).power / sql_diff
    return out


def staged_codes(model, acq):
    """Synthesis codes via a full float64 staging array and one quantize call."""
    csd = model
    if acq.full_scale is None:
        acq = replace(acq, full_scale=suggest_full_scale(model, acq))
    n_keep = acq.samples_per_set
    pad = int(math.ceil(0.125 * n_keep))
    n_gen = n_keep + 2 * pad
    freqs = np.fft.rfftfreq(n_gen, d=1.0 / acq.sample_rate)
    b00, b01, b11 = _csd_sqrt(csd, freqs, zero_nyquist=(n_gen % 2 == 0))
    scale = math.sqrt(n_gen * acq.sample_rate / 2.0)
    sig_p = math.sqrt(csd.sql_probe * acq.sample_rate / 2.0)
    sig_c = math.sqrt(csd.sql_conj * acq.sample_rate / 2.0)
    seeds = np.random.SeedSequence(acq.rng_seed).spawn(acq.num_sets)
    ac = np.empty((4, acq.num_sets, n_keep), dtype=float)
    for i in range(acq.num_sets):
        gen = np.random.default_rng(seeds[i])
        z = gen.standard_normal((2, freqs.size, 2))
        z0 = (z[0, :, 0] + 1j * z[0, :, 1]) / math.sqrt(2.0)
        z1 = (z[1, :, 0] + 1j * z[1, :, 1]) / math.sqrt(2.0)
        spec_p = (b00 * z0 + b01 * z1) * scale
        spec_c = (np.conj(b01) * z0 + b11 * z1) * scale
        parents = np.fft.irfft(np.vstack([spec_p, spec_c]), n=n_gen, axis=-1)
        parent_p = parents[0, pad : pad + n_keep]
        parent_c = parents[1, pad : pad + n_keep]
        w_p = gen.standard_normal(n_keep) * sig_p
        w_c = gen.standard_normal(n_keep) * sig_c
        ac[0, i] = (parent_p + w_p) / 2.0
        ac[1, i] = (parent_p - w_p) / 2.0
        ac[2, i] = (parent_c + w_c) / 2.0
        ac[3, i] = (parent_c - w_c) / 2.0
    return quantize(ac, acq.adc_bits, acq.full_scale)


def split_and_detect(trace, dc: float, acq: AcquisitionConfig, charge_scale: float, rng=None):
    """50/50 split of a beam's fluctuation trace into two detector halves.

    Each half carries half the classical fluctuation plus independent
    shot noise such that half1 - half2 has exactly the parent SQL density
    (2 * charge_scale * dc) and half1 + half2 restores the parent trace.
    """
    if dc <= 0.0:
        raise ConfigError(f"dc must be > 0, got {dc}")
    rng = np.random.default_rng() if rng is None else rng
    x = np.asarray(trace, dtype=float)
    w = rng.standard_normal(x.shape) * _shot_sigma(dc, acq, charge_scale)
    return (x + w) / 2.0, (x - w) / 2.0


def coherent_traces(
    acq: AcquisitionConfig,
    probe_dc: float = 1.0,
    conj_dc: float = 1.0,
    charge_scale: float | None = None,
) -> TraceSet:
    """Two uncorrelated shot-noise-limited beams, split and digitized.

    The null fixture: every g2 curve must come out flat at one and both
    normalized spectra at their SQL.  A squeeze parameter cannot express
    this (s = 0 leaves the conjugate dark), so the four channels are
    drawn directly.  The default charge scale puts the integrated
    relative intensity noise at 1% of DC.
    """
    if probe_dc <= 0.0 or conj_dc <= 0.0:
        raise ConfigError("probe_dc and conj_dc must be > 0")
    if charge_scale is None:
        charge_scale = probe_dc / (100.0 * acq.sample_rate)
    dcs = (probe_dc, conj_dc)
    sig = [_shot_sigma(dc, acq, charge_scale) for dc in dcs]
    if acq.full_scale is None:
        # each half: (parent + w)/2 with both at the parent SQL
        acq = replace(acq, full_scale=8.0 * max(sig) / math.sqrt(2.0))
    seeds = np.random.SeedSequence(acq.rng_seed).spawn(acq.num_sets)
    n = acq.samples_per_set
    codes = np.empty((4, acq.num_sets, n), dtype=np.int16)
    for i in range(acq.num_sets):
        gen = np.random.default_rng(seeds[i])
        for beam in range(2):
            parent = gen.standard_normal(n) * sig[beam]
            halves = split_and_detect(parent, dcs[beam], acq, charge_scale, gen)
            for k, half in enumerate(halves):
                codes[2 * beam + k, i] = quantize(half, acq.adc_bits, acq.full_scale)
    dc_means = np.array([probe_dc / 2.0, probe_dc / 2.0, conj_dc / 2.0, conj_dc / 2.0])
    return TraceSet(
        codes=codes,
        dc_means=dc_means,
        acquisition=acq,
        provenance="coherent",
        charge_scale=charge_scale,
    )
