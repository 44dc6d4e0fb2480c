"""Entanglement-distribution fidelity for a dual downlink.

One source (HAPS) distributes the two photons of an entangled pair to
two receivers (LAPS).  Each receiver's click is signal-borne with
probability q = p_s / (p_s + p_b); a background-origin click carries no
correlation and fully depolarises that arm.  Post-selecting on
coincidences therefore leaves a Werner state of weight w = q_a q_b and
fidelity

    F = w + (1 - w) / 4 = (1 + 3 q_a q_b) / 4

ranging from 1/4 (background only) to 1 (noise-free).  Turbulence
fading is not folded in: the scintillation index of the short
stratospheric paths involved stays far below unity.  A radiance sweep
is one :func:`signal_fraction` call over an array of radiances.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .channel import LinkBudget, NoiseEnvironment, background_counts, system_loss


def signal_fraction(budget: LinkBudget, range_m: float, env: NoiseEnvironment,
                    pair_mean: float) -> float | np.ndarray:
    """Probability that a click at this receiver is signal-borne.

    q = p_s / (p_s + p_b) with p_s = pair_mean * eta_sys and p_b the
    background/dark counts per gate; q = 0 when both vanish.  An array
    ``env.spectral_radiance`` gives an array of q.
    """
    p_s = pair_mean * system_loss(budget, range_m).transmittance
    total = p_s + background_counts(env, budget)
    return np.divide(p_s, total, out=np.zeros(np.shape(total)), where=total != 0)[()]


def werner_fidelity(q_a: float | np.ndarray,
                    q_b: float | np.ndarray) -> float | np.ndarray:
    """Fidelity (1 + 3 q_a q_b) / 4 of the post-selected Werner state."""
    w = q_a * q_b
    return (1.0 + 3.0 * w) / 4.0


def fidelity_sweep(budget: LinkBudget, range_m: float, env: NoiseEnvironment,
                   pair_mean: float,
                   radiance_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Signal fraction and fidelity of two like arms across a radiance grid.

    Both receivers see the same background radiance, so one channel
    evaluation gives the q of either arm.  The grid must be strictly
    increasing and non-negative; the fidelity is monotone non-increasing.
    """
    grid = np.array(radiance_grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("radiance grid must be non-negative")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("radiance grid must be strictly increasing")
    if pair_mean <= 0:
        raise ValueError(f"pair_mean must be > 0, got {pair_mean}")
    q = signal_fraction(budget, range_m, replace(env, spectral_radiance=grid), pair_mean)
    return q, werner_fidelity(q, q)
