"""SQL-normalized noise spectra for the high-gain and low-gain presets.

G10 shows broadband intensity-difference squeezing; G2 keeps deep
squeezing at low frequency but the conjugate's excess noise and the
relative-delay dispersion wash the correlation out a few MHz up.  Each
scenario gets one CSV with the probe, conjugate and difference spectra
in units of their own standard quantum limits.

Usage: python demos/noise_spectra.py [outdir]
"""

import os
import sys

import numpy as np

from csilab import Spectra, normalized_spectra, preset
from csilab.synth import synthesize_stream


def run(name, outdir):
    sc = preset(name)
    sp = Spectra(synthesize_stream(sc.model, sc.acquisition))
    rep = normalized_spectra(
        sp, band=sc.analysis.spectra_band, smooth_hz=sc.analysis.smooth_hz
    )
    keep = ~np.isnan(rep.s_diff_norm) & (rep.frequencies <= sc.analysis.spectra_band[1])
    path = os.path.join(outdir, f"spectra_{name.lower()}.csv")
    np.savetxt(
        path,
        np.column_stack(
            [
                rep.frequencies[keep],
                rep.s_p_norm[keep],
                rep.s_c_norm[keep],
                rep.s_diff_norm[keep],
            ]
        ),
        delimiter=",",
        header="f_hz,s_p_norm,s_c_norm,s_diff_norm",
        comments="",
        fmt="%.9e",
    )
    print(
        f"{name}: squeezing max {rep.squeezing_db_max:.2f} dB, "
        f"bandwidth {rep.squeezing_bandwidth / 1e6:.2f} MHz -> {path}"
    )
    return rep, keep, path


def main(outdir="demo_out"):
    os.makedirs(outdir, exist_ok=True)
    results = {name: run(name, outdir) for name in ("G10", "G2")}

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, (name, (rep, keep, _)) in zip(axes, results.items()):
        f = rep.frequencies[keep] / 1e6
        ax.semilogy(f, rep.s_p_norm[keep], label="probe / SQL")
        ax.semilogy(f, rep.s_c_norm[keep], label="conjugate / SQL")
        ax.semilogy(f, rep.s_diff_norm[keep], label="difference / SQL")
        ax.axhline(1.0, color="k", lw=0.8, ls="--")
        ax.set_title(name)
        ax.set_xlabel("frequency (MHz)")
    axes[0].set_ylabel("noise power (units of SQL)")
    axes[0].legend()
    fig.tight_layout()
    png = os.path.join(outdir, "spectra.png")
    fig.savefig(png, dpi=150)
    print(f"wrote {png}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
