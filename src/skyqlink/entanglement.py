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
is one :func:`dual_link_fidelity` call over an array of radiances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import LinkBudget, NoiseEnvironment, background_counts, system_loss


@dataclass(frozen=True)
class DownlinkArm:
    """One receiver arm of the dual downlink."""

    budget: LinkBudget
    range_m: float
    env: NoiseEnvironment

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError(f"range must be > 0, got {self.range_m}")


@dataclass(frozen=True)
class DualDownlink:
    """Entangled-pair source feeding two receiver arms.

    ``pair_mean`` is the mean number of photon pairs per detection gate
    (kept well below 1 so double-pair emissions stay negligible);
    ``pair_rate`` the pair generation rate in Hz.
    """

    link_a: DownlinkArm
    link_b: DownlinkArm
    pair_rate: float = 1e7
    pair_mean: float = 0.1

    def __post_init__(self) -> None:
        if self.pair_mean <= 0:
            raise ValueError(f"pair_mean must be > 0, got {self.pair_mean}")
        if self.pair_rate <= 0:
            raise ValueError(f"pair_rate must be > 0, got {self.pair_rate}")

    def with_radiance(self, spectral_radiance: float | np.ndarray) -> "DualDownlink":
        """Both receivers see the same background radiance."""
        return replace(
            self,
            link_a=replace(self.link_a, env=replace(
                self.link_a.env, spectral_radiance=spectral_radiance)),
            link_b=replace(self.link_b, env=replace(
                self.link_b.env, spectral_radiance=spectral_radiance)),
        )


@dataclass(frozen=True)
class FidelityResult:
    """Werner fidelity and per-arm signal fractions (arrays over radiances)."""

    fidelity: float | np.ndarray
    q_a: float | np.ndarray
    q_b: float | np.ndarray
    coincidence_rate: float


def _signal_fraction(p_s: float | np.ndarray, env: NoiseEnvironment,
                     budget: LinkBudget) -> float | np.ndarray:
    """q = p_s / (p_s + p_b) for signal clicks p_s per gate; 0 when both vanish."""
    total = p_s + background_counts(env, budget)
    return np.divide(p_s, total, out=np.zeros(np.shape(total)), where=total != 0)[()]


def signal_fraction(budget: LinkBudget, range_m: float, env: NoiseEnvironment,
                    pair_mean: float) -> float | np.ndarray:
    """Probability that a click at this receiver is signal-borne.

    q = p_s / (p_s + p_b) with p_s = pair_mean * eta_sys and p_b the
    background/dark counts per gate; q = 0 when both vanish.
    """
    return _signal_fraction(pair_mean * system_loss(budget, range_m).transmittance,
                            env, budget)


def dual_link_fidelity(link: DualDownlink) -> FidelityResult:
    """Werner fidelity of the post-selected two-photon state; each arm's
    channel is evaluated once, for its signal fraction and the coincidences."""
    arms = (link.link_a, link.link_b)
    eta_a, eta_b = (system_loss(arm.budget, arm.range_m).transmittance for arm in arms)
    q_a, q_b = (_signal_fraction(link.pair_mean * eta, arm.env, arm.budget)
                for arm, eta in zip(arms, (eta_a, eta_b)))
    w = q_a * q_b
    return FidelityResult(
        fidelity=(1.0 + 3.0 * w) / 4.0,
        q_a=q_a,
        q_b=q_b,
        coincidence_rate=link.pair_rate * eta_a * eta_b,
    )


def fidelity_sweep(link: DualDownlink,
                   radiance_grid: Sequence[float]) -> list[tuple[float, FidelityResult]]:
    """Fidelity across a background-radiance grid applied to both arms.

    The grid must be strictly increasing and non-negative; the fidelity
    column of the output is monotone non-increasing.
    """
    grid = np.array(radiance_grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("radiance grid must be non-negative")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("radiance grid must be strictly increasing")
    res = dual_link_fidelity(link.with_radiance(grid))
    results = map(FidelityResult, res.fidelity.tolist(), res.q_a.tolist(),
                  res.q_b.tolist(), [res.coincidence_rate] * len(grid))
    return list(zip(grid.tolist(), results))
