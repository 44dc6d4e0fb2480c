"""Free-space optical channel: transmittance and background counts.

Combines far-field diffraction spreading, Rayleigh-distributed pointing
jitter (through the equivalent-beam closed form), and fixed optics,
atmosphere and detector efficiencies into one per-time-step system
transmittance, plus the background/dark count rate seen per detection
gate.  Free-space direct detection onto single-photon detectors is
assumed (no fibre-coupling term).  Ranges may be floats or arrays: a whole
pass or sweep is one channel evaluation, not one per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import LIGHT_SPEED, PLANCK
from .geometry import PassGeometry

_ERF = np.frompyfunc(math.erf, 1, 1)
"""``math.erf`` as an object-dtype ufunc, for arrays of beam ratios."""


@dataclass(frozen=True)
class LinkBudget:
    """Optical hardware of one link.

    Parameters
    ----------
    wavelength : float
        Optical wavelength, m.
    divergence_full : float
        Full transmit divergence angle at 1/e^2 intensity, rad.
    tx_aperture, rx_aperture : float
        Telescope diameters, m.
    pointing_sigma : float
        Per-axis pointing jitter standard deviation, rad.
    eta_tx, eta_rx, eta_det, eta_atm : float
        Fixed transmit optics, receive optics, detector, and atmospheric
        transmittances, each in (0, 1].
    """

    wavelength: float
    divergence_full: float
    tx_aperture: float
    rx_aperture: float
    pointing_sigma: float = 0.0
    eta_tx: float = 0.8
    eta_rx: float = 0.8
    eta_det: float = 0.5
    eta_atm: float = 1.0

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if self.divergence_full <= 0:
            raise ValueError(f"divergence must be > 0, got {self.divergence_full}")
        if self.tx_aperture <= 0 or self.rx_aperture <= 0:
            raise ValueError("apertures must be > 0")
        if self.pointing_sigma < 0:
            raise ValueError(f"pointing sigma must be >= 0, got {self.pointing_sigma}")
        for name in ("eta_tx", "eta_rx", "eta_det", "eta_atm"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {val}")


@dataclass(frozen=True)
class NoiseEnvironment:
    """Background light and detector noise at the receiver.

    ``spectral_radiance`` is in W m^-2 nm^-1 sr^-1, ``fov`` the receiver
    field of view in sr, ``filter_bandwidth`` in nm, ``gate_time`` in s,
    ``dark_count_rate`` in Hz per detector.
    """

    spectral_radiance: float = 0.0
    fov: float = 1e-8
    filter_bandwidth: float = 1.0
    gate_time: float = 1e-9
    dark_count_rate: float = 200.0

    def __post_init__(self) -> None:
        for name in ("spectral_radiance", "fov", "filter_bandwidth",
                     "gate_time", "dark_count_rate"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")


class SystemLoss(NamedTuple):
    transmittance: float | np.ndarray
    db: float | np.ndarray


class LinkSample(NamedTuple):
    """One channel record: time, system transmittance, background per gate."""

    t_s: float
    eta_sys: float
    background_per_gate: float


def beam_radius(budget: LinkBudget, range_m: float | np.ndarray) -> float | np.ndarray:
    """Far-field 1/e^2 beam radius at the receiver plane, m."""
    if np.any(np.asarray(range_m) <= 0):
        raise ValueError(f"range must be > 0, got {range_m}")
    return 0.5 * budget.divergence_full * range_m


def centered_transmittance(budget: LinkBudget, range_m: float) -> float:
    """Fraction of a centred Gaussian beam collected by the rx aperture.

    eta0 = 1 - exp(-2 a^2 / w^2) with a the aperture radius and w the
    1/e^2 beam radius at the receiver.
    """
    a = 0.5 * budget.rx_aperture
    w = beam_radius(budget, range_m)
    return 1.0 - math.exp(-2.0 * a * a / (w * w))


def _equivalent_beam(a: float, w: float | np.ndarray) -> tuple:
    """Equivalent-beam parameters (A0, w_eq^2) for a hard circular aperture.

    A0 is the peak (centred) collected fraction and w_eq the equivalent
    Gaussian width such that the collected fraction at radial displacement
    r is approximately A0 exp(-2 r^2 / w_eq^2); w_eq^2 is inf where the
    aperture is so much wider than the beam that exp(-v^2) underflows.
    """
    v = math.sqrt(math.pi / 2.0) * a / w
    erf_v = np.asarray(_ERF(v), dtype=float)[()]
    denom = 2.0 * v * np.exp(-v * v)
    return erf_v * erf_v, w * w * math.sqrt(math.pi) * erf_v / denom


def pointing_transmittance_expected(budget: LinkBudget, range_m: float | np.ndarray
                                    ) -> float | np.ndarray:
    """Expected aperture transmittance under Rayleigh pointing jitter.

    The per-axis Gaussian jitter of ``pointing_sigma`` rad displaces the
    beam centre by a Rayleigh-distributed radius with scale
    ``sigma_d = pointing_sigma * range``.  Averaging the equivalent-beam
    collection A0 exp(-2 r^2 / w_eq^2) over that distribution gives the
    closed form

        <eta_p> = A0 * gamma / (gamma + 1),  gamma = w_eq^2 / (4 sigma_d^2).

    With zero jitter (gamma = inf) this returns A0 exactly.  Degenerate
    inputs give 0 or nan here, which :func:`system_loss` rejects.
    """
    with np.errstate(all="ignore"):
        w = beam_radius(budget, range_m)
        a0, w_eq_sq = _equivalent_beam(0.5 * budget.rx_aperture, w)
        sigma_d = budget.pointing_sigma * range_m
        gamma = w_eq_sq / (4.0 * sigma_d * sigma_d)
        return np.where(np.isinf(gamma), a0, a0 * gamma / (gamma + 1.0))[()]


def pointing_transmittance_mc(budget: LinkBudget, range_m: float,
                              n_draws: int = 10**6, seed: int = 7) -> float:
    """Monte-Carlo average of the jittered transmittance (test oracle).

    Draws Rayleigh displacement radii and averages the equivalent-beam
    collected fraction directly.  Kept out of the main computation path;
    :func:`pointing_transmittance_expected` is the production route.
    """
    w = beam_radius(budget, range_m)
    a0, w_eq_sq = _equivalent_beam(0.5 * budget.rx_aperture, w)
    sigma_d = budget.pointing_sigma * range_m
    if sigma_d == 0.0:
        return a0
    rng = np.random.default_rng(seed)
    r = sigma_d * np.sqrt(-2.0 * np.log(rng.random(n_draws)))
    return float(a0 * np.mean(np.exp(-2.0 * r * r / w_eq_sq)))


def system_loss(budget: LinkBudget, range_m: float | np.ndarray) -> SystemLoss:
    """Total system transmittance and its dB value at a range or ranges.

    eta_sys = <eta_pointing> * eta_atm * eta_tx * eta_rx * eta_det
    """
    eta = (pointing_transmittance_expected(budget, range_m)
           * budget.eta_atm * budget.eta_tx * budget.eta_rx * budget.eta_det)
    if not np.all(eta > 0.0):
        raise ValueError("system transmittance underflows to 0 or is undefined")
    return SystemLoss(eta, -10.0 * np.log10(eta))


def background_counts(env: NoiseEnvironment, budget: LinkBudget) -> float:
    """Expected background plus dark counts per detection gate.

    Sky photons collected through the field of view, aperture area and
    spectral filter, converted at the photon energy h*c/lambda and scaled
    by the receive-path efficiencies, plus detector dark counts:

        N_b = H_b * fov * pi (D/2)^2 * dLambda * tau * lambda/(h c)
              * eta_rx * eta_det  +  R_dark * tau
    """
    area = math.pi * (0.5 * budget.rx_aperture) ** 2
    photon_rate = (env.spectral_radiance * env.fov * area * env.filter_bandwidth
                   * budget.wavelength / (PLANCK * LIGHT_SPEED))
    sky = photon_rate * env.gate_time * budget.eta_rx * budget.eta_det
    return sky + env.dark_count_rate * env.gate_time


def link_timeseries(pass_geometry: PassGeometry, budget: LinkBudget,
                    env: NoiseEnvironment) -> list[LinkSample]:
    """Per-sample channel records (t, eta_sys, background per gate).

    Output order matches the pass sample order; the channel is evaluated
    once over the range array, and background counts once.
    """
    eta = system_loss(budget, pass_geometry.range_m).transmittance
    n_b = [background_counts(env, budget)] * len(eta)
    return list(map(LinkSample, pass_geometry.t_s.tolist(), eta.tolist(), n_b))
