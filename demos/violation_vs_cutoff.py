"""Violation factor against analysis bandwidth for all four gain presets.

The classical bound is V = 1.  Bright twin beams start below it at every
gain; as the high-frequency cutoff opens past the correlation bandwidth,
excess noise pulls V back up.  The G2 preset crosses the bound near
6-7 MHz, the higher-gain presets stay below it over the full 15 MHz band,
and at the smallest cutoff the ordering follows 1 - 1/(2G).

Usage: python demos/violation_vs_cutoff.py [outdir]
"""

import dataclasses
import os
import sys

import numpy as np

from csilab import (
    Spectra,
    cutoff_sweep,
    preset,
    synthesize,
    violation_factor_ideal,
)

CUTOFFS_MHZ = list(range(1, 16))
PRESETS = ("G2", "G5", "G8", "G10")


def main(outdir="demo_out"):
    os.makedirs(outdir, exist_ok=True)
    table = {}
    for name in PRESETS:
        sc = preset(name)
        # the scenario's bandpass at each cutoff
        specs = [dataclasses.replace(sc.analysis.bandpass, f_hi=f * 1e6) for f in CUTOFFS_MHZ]
        sp = Spectra(synthesize(sc.model, sc.acquisition), specs)
        rows = cutoff_sweep(sp, specs)
        table[name] = rows
        path = os.path.join(outdir, f"vsweep_{name.lower()}.csv")
        np.savetxt(
            path,
            rows,
            delimiter=",",
            header="f_hi_hz,v_mean,v_sigma",
            comments="",
            fmt="%.9e",
        )
        print(
            f"{name}: V({CUTOFFS_MHZ[0]} MHz) = {rows[0, 1]:.4f}, "
            f"V({CUTOFFS_MHZ[-1]} MHz) = {rows[-1, 1]:.4f} "
            f"(bright-beam floor {violation_factor_ideal(sc.model.params.gain):.3f}) "
            f"-> {path}"
        )

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    for name, rows in table.items():
        ax.errorbar(
            rows[:, 0] / 1e6,
            rows[:, 1],
            yerr=rows[:, 2] / np.sqrt(preset(name).acquisition.num_sets),
            label=name,
            marker="o",
            ms=3,
            lw=1,
        )
    ax.axhline(1.0, color="k", lw=0.8, ls="--")
    ax.set_xlabel("high-frequency cutoff (MHz)")
    ax.set_ylabel("violation factor V")
    ax.legend()
    fig.tight_layout()
    png = os.path.join(outdir, "vsweep.png")
    fig.savefig(png, dpi=150)
    print(f"wrote {png}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
