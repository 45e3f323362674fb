"""Brute-force number-basis oracle for the seeded two-mode squeezer.

Independent check on the Gaussian closed forms in :mod:`csilab.theory`:
the state S|alpha, 0> with S = exp(s(ab - a†b†)) is written out in the
truncated two-mode number basis and the normally ordered moments are taken
by applying ladder matrices to the amplitude array.  No moment
factorization is used anywhere.

The normal-ordering identity
S = exp(-tanh(s) a†b†) sech(s)^(n_a+n_b+1) exp(tanh(s) ab) applied to the
seed gives exact amplitudes on |n+k, k>:

    w(n, k) = e^(-|a|²/2) sech(s)^(n+1) alpha^n (-tanh s)^k
              sqrt((n+k)!) / (n! sqrt(k!))

which are evaluated in log space to stay finite at large cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall
from .theory import SqueezeParams

MAX_CUTOFF = 256
# The g2 moments are fourth order in the ladder operators, so their
# truncation error is the norm deficit weighted by about m², up to ~1500
# times it at dimension 24: a 1e-10 deficit put g2 up to 5e-8 off the closed
# forms (s = 0.6, |alpha| = 0.6), past the CLI's 1e-8 oracle tolerance.
NORM_TOLERANCE = 1e-13


@dataclass(frozen=True)
class FockMoments:
    """Moments measured on the truncated state."""

    n_probe: float
    n_conj: float
    g2_aa: float
    g2_bb: float
    g2_ab0: float
    cutoff: int
    norm: float


def _log_factorials(dim: int) -> np.ndarray:
    """log(n!) for n = 0 .. dim - 1, as a running sum of log(n)."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))


def _amplitudes(p: SqueezeParams, dim: int) -> np.ndarray:
    """Two-mode amplitude array psi[m, k] for photon numbers m, k < dim."""
    s = p.s
    alpha = complex(p.alpha)
    amag = abs(alpha)
    th = math.tanh(s)
    log_sech = -math.log(math.cosh(s))

    psi = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim, dtype=float)
    log_fact = _log_factorials(dim)
    # log of e^(-|a|²/2) |alpha|^n / n! together with the sech^(n+1) weight
    if amag > 0.0:
        log_seed = -0.5 * amag**2 + n * math.log(amag) - log_fact
    else:
        log_seed = np.full(dim, -np.inf)
        log_seed[0] = 0.0
    log_seed = log_seed + (n + 1.0) * log_sech
    seed_phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0.0 else np.ones(dim)

    if th == 0.0:
        # no pair production: the conjugate stays in vacuum and the n!
        # denominator reverts to the coherent state's sqrt(n!)
        psi[:, 0] = np.exp(log_seed + 0.5 * log_fact) * seed_phase
        return psi

    log_th = math.log(th)
    for k in range(dim):
        logw = (
            log_seed[: dim - k]
            + k * log_th
            + 0.5 * log_fact[k:]
            - 0.5 * log_fact[k]
        )
        psi[k:, k] = np.exp(logw) * seed_phase[: dim - k] * ((-1.0) ** k)
    return psi


def _moments(psi: np.ndarray) -> tuple[float, float, float, float, float]:
    dim = psi.shape[0]
    lower = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    lower[idx, idx + 1] = np.sqrt(idx + 1.0)

    a_psi = lower @ psi
    b_psi = psi @ lower.T
    n_p = float(np.vdot(a_psi, a_psi).real)
    n_c = float(np.vdot(b_psi, b_psi).real)
    aa = lower @ a_psi
    bb = b_psi @ lower.T
    ab = a_psi @ lower.T
    mom_aa = float(np.vdot(aa, aa).real)
    mom_bb = float(np.vdot(bb, bb).real)
    mom_ab = float(np.vdot(ab, ab).real)
    return n_p, n_c, mom_aa, mom_bb, mom_ab


def fock_oracle_moments(p: SqueezeParams, cutoff: int = 24) -> FockMoments:
    """Photon numbers and g²(0) values from the truncated number basis.

    The cutoff is the per-mode dimension; it doubles automatically until
    the truncated state holds at least 1 - 1e-13 of the norm, up to a hard
    cap of 256.  Entries whose normalization vanishes (an empty mode) come
    back as NaN.

    Raises
    ------
    CutoffTooSmall
        If the norm criterion still fails at the cap.
    """
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be at least 2, got {cutoff}")
    dim = int(cutoff)
    while True:
        psi = _amplitudes(p, dim)
        norm = float(np.vdot(psi, psi).real)
        if norm >= 1.0 - NORM_TOLERANCE:
            break
        if dim >= MAX_CUTOFF:
            raise CutoffTooSmall(
                f"norm {norm:.12f} below {1 - NORM_TOLERANCE} at dimension {dim}"
            )
        dim = min(2 * dim, MAX_CUTOFF)

    n_p, n_c, mom_aa, mom_bb, mom_ab = _moments(psi)
    g2_aa = mom_aa / n_p**2 if n_p > 0.0 else math.nan
    g2_bb = mom_bb / n_c**2 if n_c > 0.0 else math.nan
    g2_ab0 = mom_ab / (n_p * n_c) if n_p > 0.0 and n_c > 0.0 else math.nan
    return FockMoments(
        n_probe=n_p,
        n_conj=n_c,
        g2_aa=g2_aa,
        g2_bb=g2_bb,
        g2_ab0=g2_ab0,
        cutoff=dim,
        norm=norm,
    )
