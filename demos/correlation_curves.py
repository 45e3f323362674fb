"""Intensity correlation functions of one bright twin-beam run.

Synthesizes the lossless flat-band preset, estimates the normalized
second-order correlations g2_ab, g2_aa, g2_bb against lag, and writes
them as plot-ready CSV.  The cross peak rising above the mean of the
two autos is the nonclassical signature; the violation factor in the
preset's analysis band quantifies it.  The unfiltered V is printed too,
labelled as such: over the whole grid the cross term keeps a slow tail
out to Nyquist, so it reads well below the band's V.

The ideal preset is used because raw (unfiltered) correlation curves
also pick up the low-frequency technical noise that rides both beams of
the realistic presets; the analysis bandpass removes it before any
violation verdict (see violation_vs_cutoff.py for that pipeline).

Usage: python demos/correlation_curves.py [outdir]
"""

import os
import sys

import numpy as np

from csilab import Spectra, filtered_violation, g2_curves, preset, synthesize


def main(outdir="demo_out"):
    os.makedirs(outdir, exist_ok=True)
    sc = preset("G10_IDEAL")
    print(f"synthesizing {sc.acquisition.num_sets} sets of {sc.name} ...")
    band = sc.analysis.bandpass
    # V under the band and unfiltered: the Spectra is built for both
    sp = Spectra(synthesize(sc.model, sc.acquisition), [band, None])
    rep = g2_curves(sp, sc.analysis.tau_max)
    stats = filtered_violation(sp, band)
    raw = filtered_violation(sp, None)

    path = os.path.join(outdir, "g2_curves_ideal.csv")
    np.savetxt(
        path,
        np.column_stack([rep.tau_grid, rep.g2_ab, rep.g2_aa, rep.g2_bb]),
        delimiter=",",
        header="tau_s,g2_ab,g2_aa,g2_bb",
        comments="",
        fmt="%.9e",
    )
    print(f"wrote {path}")
    mid = rep.tau_grid.size // 2
    print(
        f"peak g2_ab = {rep.g2_ab.max():.6f} vs autos at zero lag "
        f"{rep.g2_aa[mid]:.6f} / {rep.g2_bb[mid]:.6f}"
    )
    print(
        f"V in the {band.f_lo / 1e6:g}-{band.f_hi / 1e6:g} MHz analysis band = "
        f"{stats['v_mean']:.4f} +/- {stats['v_sigma']:.4f} "
        f"({'violated' if stats['violated'] else 'not violated'})"
    )
    print(f"V unfiltered, over the whole grid = {raw['v_mean']:.4f} +/- {raw['v_sigma']:.4f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    t = rep.tau_grid * 1e9
    ax.plot(t, rep.g2_ab, label="cross $g^{(2)}_{ab}$")
    ax.plot(t, rep.g2_aa, label="probe auto")
    ax.plot(t, rep.g2_bb, label="conjugate auto")
    ax.set_xlabel("lag (ns)")
    ax.set_ylabel("normalized correlation")
    ax.legend()
    fig.tight_layout()
    png = path.replace(".csv", ".png")
    fig.savefig(png, dpi=150)
    print(f"wrote {png}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
