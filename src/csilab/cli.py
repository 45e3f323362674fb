"""Command-line pipelines: simulate, analyze, sweep, theory, report.

Every failure path maps to an exit code instead of a traceback: 2 for
configuration or parameter problems, 3 for ordinary I/O failures, 4 for
malformed trace containers.  Output files are written to a temporary
sibling and renamed into place, so an error never leaves partial CSVs
behind; each command computes all of its outputs before it writes one.

The --config flag accepts either a preset name (G2, G5, G8, G10,
G10_IDEAL) or the path of an INI scenario file; with neither, the G10
preset applies.
"""

import argparse
import contextlib
import dataclasses
import locale  # noqa: F401  (argparse's gettext imports it on first use)
import math
import os
import sys

import numpy as np

from ._atomic import atomic_write
from .errors import ConfigError, CsilabError, TraceFileError
from .estimators import (
    Spectra,
    csi_frequency_test,
    cutoff_sweep,
    filtered_violation,
    g2_curves,
    normalized_spectra,
    sweep_filters,
)
from .fock import fock_oracle_moments
from .scenarios import Scenario, load_scenario, preset, preset_names
from .synth import synthesize_stream
from .theory import SqueezeParams, db, g2_ideal, squeezing_ideal, violation_factor_ideal
from .tracefile import _stream, _write, open_stream, write_stream

ORACLE_TOL = 1e-8
# a verdict needs V this many standard errors from the classical bound 1
VERDICT_MIN_SIGMA = 3.0


def _resolve_scenario(config: str | None) -> Scenario:
    if config is None:
        return preset("G10")
    if config.upper() in preset_names():
        return preset(config)
    return load_scenario(config)


def _apply_overrides(sc: Scenario, seed, sets) -> Scenario:
    acq = sc.acquisition
    if seed is not None:
        acq = dataclasses.replace(acq, rng_seed=seed)
    if sets is not None:
        acq = dataclasses.replace(acq, num_sets=sets)
    return dataclasses.replace(sc, acquisition=acq)


def _write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _write_csv(path, columns: dict) -> None:
    """A header line, then one %.9e row per sample: np.savetxt's bytes,
    formatted in one operation."""
    arr = np.column_stack(list(columns.values()))
    row = ",".join(["%.9e"] * arr.shape[1]) + "\n"
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.write((row * arr.shape[0]) % tuple(arr.ravel().tolist()))


def _parse_cutoffs(text: str) -> list:
    """The comma or space separated cutoffs of --cutoffs, in Hz.

    Commands parse the list before they read or write anything, so a bad
    one leaves no file behind.
    """
    try:
        cutoffs = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        cutoffs = []
    if not cutoffs or not all(map(math.isfinite, cutoffs)):
        raise ConfigError(f"--cutoffs must list one or more finite numbers in Hz, got {text!r}")
    return cutoffs


def _default_cutoffs(bandpass) -> list:
    """report's sweep when --cutoffs is not given: the whole MHz values in
    (f_lo, f_hi] of the scenario's bandpass, in Hz, or f_hi alone when
    there are none."""
    mhz = range(math.floor(bandpass.f_lo / 1e6) + 1, math.floor(bandpass.f_hi / 1e6) + 1)
    return [f * 1e6 for f in mhz] or [bandpass.f_hi]


def _simulate(args):
    """(scenario, stream) of the traces the command's settings describe.

    Synthesis makes every check here, before any block exists, so a
    refused configuration leaves no file and no directory behind.
    """
    sc = _apply_overrides(_resolve_scenario(args.config), args.seed, args.sets)
    return sc, synthesize_stream(sc.model, sc.acquisition)


def cmd_simulate(args) -> int:
    sc, stream = _simulate(args)
    write_stream(stream, args.out)
    acq = stream.acquisition
    print(f"scenario {sc.name}: {acq.num_sets} sets x {acq.samples_per_set} "
          f"samples x 4 channels at {acq.sample_rate / 1e9:g} GS/s")
    print("dc means: " + "  ".join(f"{x:.6g}" for x in stream.dc_means))
    print(f"seed 0x{acq.rng_seed:X} -> {args.out} "
          f"({os.path.getsize(args.out)} bytes)")
    return 0


def _verdict(stats: dict, num_sets: int) -> str:
    """The side of 1 that V falls on; INCONCLUSIVE unless V is positive,
    VERDICT_MIN_SIGMA standard errors from 1 and from most sets, and the
    delay was measured: without it the conjugate is left uncompensated."""
    if (stats["v_mean"] <= 0.0 or stats["sigma_count"] < VERDICT_MIN_SIGMA
            or 2 * stats["num_degenerate"] > num_sets or stats["delay_fallback"]):
        return "INCONCLUSIVE"
    return "CSI VIOLATED" if stats["violated"] else "CSI NOT VIOLATED"


def _analyze(sc: Scenario, sp: Spectra) -> dict:
    """The outputs of every estimator on sp, each file name mapped to its
    contents, summary.txt's text among them."""
    a = sc.analysis
    stats = filtered_violation(sp, a.bandpass)
    rep = normalized_spectra(sp, band=a.spectra_band, smooth_hz=a.smooth_hz)
    band = (a.bandpass.f_lo, a.bandpass.f_hi)
    lhs, rhs, classical = csi_frequency_test(rep, sp, band)
    curves = g2_curves(sp, a.tau_max)

    verdict = _verdict(stats, sp.sets)
    fallback = " (no significant peak; uncompensated)" if stats["delay_fallback"] else ""
    lines = [
        f"scenario: {sc.name}",
        f"sets: {sp.sets} ({stats['num_degenerate']} degenerate)",
        f"band: {band[0] / 1e6:.2f}-{band[1] / 1e6:.2f} MHz",
        f"delay estimate: {stats['delay'] * 1e9:.3f} ns{fallback}",
        f"V = {stats['v_mean']:.6f} +/- {stats['v_sigma']:.6f} (set-to-set std)",
        f"standard error {stats['v_sem']:.6f}, sigma_count = {stats['sigma_count']:.1f}",
        f"verdict: {verdict}",
        f"spectral test: lhs = {lhs:.6g}, rhs = {rhs:.6g}, "
        f"{'classical' if classical else 'violated'} "
        f"(agrees: {'yes' if classical != stats['violated'] else 'NO'})",
        f"squeezing: max {rep.squeezing_db_max:.2f} dB below SQL, "
        f"bandwidth {rep.squeezing_bandwidth / 1e6:.2f} MHz",
    ]
    summary = "\n".join(lines) + "\n"
    keep = ~np.isnan(rep.s_p_norm)
    return {
        "g2_curves.csv": {"tau_s": curves.tau_grid, "g2_ab": curves.g2_ab,
                          "g2_aa": curves.g2_aa, "g2_bb": curves.g2_bb},
        "spectra.csv": {"f_hz": rep.frequencies[keep], "s_p_norm": rep.s_p_norm[keep],
                        "s_c_norm": rep.s_c_norm[keep], "s_diff_norm": rep.s_diff_norm[keep]},
        "summary.txt": summary,
    }


def _write_outputs(outdir, outputs: dict) -> None:
    """Each output, a text or a dict of CSV columns, written to outdir under its name."""
    os.makedirs(outdir, exist_ok=True)
    for name, body in outputs.items():
        (_write_text if isinstance(body, str) else _write_csv)(os.path.join(outdir, name), body)


def _read(args, filters):
    """(scenario, Spectra) of the container args.trace, built block by block
    for the FilterSpecs ``filters(scenario)``."""
    with open_stream(args.trace) as stream:
        sc = _resolve_scenario(args.config)
        return sc, Spectra(stream, filters(sc))


def cmd_analyze(args) -> int:
    sc, sp = _read(args, lambda sc: [sc.analysis.bandpass])
    outputs = _analyze(sc, sp)
    _write_outputs(args.out, outputs)
    print(outputs["summary.txt"], end="")
    return 0


def _sweep_filters(sc: Scenario, cutoffs) -> list:
    """The bandpass of each cutoff, with the scenario's f_lo and order."""
    return sweep_filters(cutoffs, sc.analysis.bandpass.f_lo, sc.analysis.bandpass.order)


def _sweep(sc: Scenario, sp: Spectra, cutoffs) -> dict:
    """The columns of vsweep.csv: cutoff_sweep over the scenario's filter."""
    a = sc.analysis
    rows = cutoff_sweep(sp, cutoffs, f_lo=a.bandpass.f_lo, order=a.bandpass.order)
    return {"f_hi_hz": rows[:, 0], "v_mean": rows[:, 1], "v_sigma": rows[:, 2]}


def cmd_sweep(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    sc, sp = _read(args, lambda sc: _sweep_filters(sc, cutoffs))
    columns = _sweep(sc, sp, cutoffs)
    _write_outputs(args.out, {"vsweep.csv": columns})
    for f_hi, v, sig in zip(*columns.values()):
        print(f"f_hi {f_hi / 1e6:6.2f} MHz  V = {v:.4f} +/- {sig:.4f}")
    return 0


def cmd_theory(args) -> int:
    gains = args.gain or [10.0]
    # every row before the first line, so a refused value prints nothing
    rows = [(g, violation_factor_ideal(g), db(squeezing_ideal(g, args.eta))) for g in gains]
    print("gain  V_ideal  squeezing_db(eta={:.2f})".format(args.eta))
    for g, v, sq in rows:
        print(f"{g:4.6g}  {v:.4f}  {sq:+.2f}")
    if args.oracle:
        # Fock-space truncation is only honest for small nonzero s
        checkable = [
            g for g in gains if 0.0 < SqueezeParams.from_gain(g, alpha=1.0).s <= 0.6
        ]
        worst = 0.0
        for gain in checkable or [1.05, 1.1, 1.2]:
            p = SqueezeParams.from_gain(gain, alpha=1.0)
            ideal, oracle = g2_ideal(p), fock_oracle_moments(p)
            for a, b in [
                (ideal.g2_aa, oracle.g2_aa),
                (ideal.g2_bb, oracle.g2_bb),
                (ideal.g2_ab0, oracle.g2_ab0),
            ]:
                worst = max(worst, abs(a - b) / abs(b))
        print(f"fock oracle max relative deviation: {worst:.3e}")
        if worst > ORACLE_TOL:
            print("ORACLE MISMATCH", file=sys.stderr)
            return 1
    return 0


def cmd_report(args) -> int:
    """simulate, then analyze and sweep the container it wrote.

    The container is read back from its open temporary, every output is
    computed before any is written, and the container's rename comes last.
    An error removes the directory levels the run made, so a refused run
    leaves nothing behind.
    """
    cutoffs = None if args.cutoffs is None else _parse_cutoffs(args.cutoffs)
    sc, stream = _simulate(args)
    if cutoffs is None:
        cutoffs = _default_cutoffs(sc.analysis.bandpass)
    filters = [sc.analysis.bandpass, *_sweep_filters(sc, cutoffs)]
    made, level = [], os.path.abspath(args.out)
    while not os.path.lexists(level):  # the levels this run makes, deepest first
        made.append(level)
        level = os.path.dirname(level)
    try:
        os.makedirs(args.out, exist_ok=True)
        traces = os.path.join(args.out, "traces.cstf")
        with atomic_write(traces, "w+b") as fh:
            _write(stream, fh)
            sp = Spectra(_stream(fh, traces), filters)
            outputs = _analyze(sc, sp)
            outputs["vsweep.csv"] = _sweep(sc, sp, cutoffs)
            _write_outputs(args.out, outputs)
    except BaseException:
        for level in made:
            with contextlib.suppress(OSError):
                os.rmdir(level)
        raise
    print(outputs["summary.txt"], end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csilab",
        description="twin-beam Cauchy-Schwarz test simulator and analyzer",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize traces into a container")
    sim.add_argument("--config", help="preset name or scenario INI path")
    sim.add_argument("--out", required=True, help="output trace file")
    sim.add_argument("--seed", type=lambda s: int(s, 0))
    sim.add_argument("--sets", type=int)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate correlations and spectra")
    ana.add_argument("trace", help="trace container to analyze")
    ana.add_argument("--config", help="preset name or scenario INI path")
    ana.add_argument("--out", required=True, help="output directory")
    ana.set_defaults(func=cmd_analyze)

    sw = sub.add_parser("sweep", help="violation factor vs high-frequency cutoff")
    sw.add_argument("trace")
    sw.add_argument("--config", help="preset name or scenario INI path")
    sw.add_argument("--cutoffs", required=True,
                    help="comma or space separated cutoff list in Hz")
    sw.add_argument("--out", required=True, help="output directory")
    sw.set_defaults(func=cmd_sweep)

    th = sub.add_parser("theory", help="closed-form predictions table")
    th.add_argument("--gain", type=float, action="append",
                    help="may repeat; default 10")
    th.add_argument("--eta", type=float, default=0.8)
    th.add_argument("--oracle", action="store_true",
                    help="cross-check the Gaussian moments against the Fock oracle")
    th.set_defaults(func=cmd_theory)

    rep = sub.add_parser("report", help="simulate + analyze + sweep in one run")
    rep.add_argument("--config", help="preset name or scenario INI path")
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument("--seed", type=lambda s: int(s, 0))
    rep.add_argument("--sets", type=int)
    rep.add_argument("--cutoffs", help="override the sweep cutoff list (Hz)")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CsilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
