"""Turbulence and wind profiles along a slant path.

The vertical refractive-index structure profile Cn^2(h) uses the
Hufnagel-Valley form and the wind profile V(h) the Bufton model with a
slew-rate pseudo-wind term, which dominates the apparent wind during a
LEO pass.  From those the module computes the three slant-path moments
that matter for free-space quantum links: the Fried coherence length,
the Greenwood frequency and the (plane-wave, weak-fluctuation) Rytov
scintillation index.  Each is one height integral of the profile times
closed-form zenith and wavelength factors, so a path's zenith angles and
wavelengths may be arrays: a whole sweep is one integral per metric.

Each integral is a fixed rule in numpy: the substitution
h = h_low + (h_high - h_low) u^6 smooths the endpoint of the
(h - h_low)^(5/6) weight, and 32-node Gauss-Legendre on 16 equal
u-segments gives the moments of the bundled profiles within 1.2e-15
relative of a 30-digit reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

H_INTEGRATION_CAP = 30e3
"""Default altitude cap for turbulence moments, m; Cn^2 is negligible above."""


# The moment rule of _moment: 32-node Gauss-Legendre on 16 equal segments
# of u in [0, 1], for h = h_low + L u^6 with dh = 6 L u^5 du.  The positive
# nodes and their weights are stored (numpy's leggauss(32), which is exactly
# mirror-symmetric), so no eigen-solve runs at import.
_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_X = np.concatenate([-_NODES[::-1], _NODES])
_W = np.concatenate([_WEIGHTS[::-1], _WEIGHTS])
_U = ((np.arange(16)[:, None] + 0.5 * (_X + 1.0)) / 16.0).ravel()
_U6 = _U ** 6
_DU_WEIGHTS = np.tile(_W / 32.0, 16) * 6.0 * _U ** 5


@dataclass(frozen=True)
class TurbulenceProfile:
    """Hufnagel-Valley turbulence profile plus Bufton wind with slew term.

    Parameters
    ----------
    ground_cn2 : float
        Near-ground structure parameter A, m^(-2/3).  The HV 5/7 value is
        1.7e-14.
    rms_upper_wind : float
        RMS wind speed of the upper-atmosphere layer (the HV "W" driver
        of the 10-km turbulence bump), m/s.  21 m/s is the HV 5/7 value;
        satellite tracking inflates the apparent value through the slew
        pseudo-wind.
    ground_wind : float
        Ground-level wind speed, m/s.
    slew_rate : float
        Line-of-sight slew rate omega_s, rad/s.  Adds the pseudo-wind
        term omega_s * h to the Bufton profile; zero for quasi-static
        link pairs.
    """

    ground_cn2: float = 1.7e-14
    rms_upper_wind: float = 21.0
    ground_wind: float = 5.0
    slew_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.ground_cn2 <= 0:
            raise ValueError(f"ground_cn2 must be > 0, got {self.ground_cn2}")
        if self.rms_upper_wind <= 0:
            raise ValueError(f"rms_upper_wind must be > 0, got {self.rms_upper_wind}")
        if self.ground_wind < 0:
            raise ValueError(f"ground_wind must be >= 0, got {self.ground_wind}")
        if self.slew_rate < 0:
            raise ValueError(f"slew_rate must be >= 0, got {self.slew_rate}")

    def cn2(self, h_m: float | np.ndarray) -> float | np.ndarray:
        """Hufnagel-Valley Cn^2 at altitude(s) ``h_m``, m^(-2/3)."""
        if np.any(h_m < 0):
            raise ValueError(f"altitude must be >= 0, got {h_m}")
        w = self.rms_upper_wind
        return (0.00594 * (w / 27.0) ** 2 * (1e-5 * h_m) ** 10 * np.exp(-h_m / 1000.0)
                + 2.7e-16 * np.exp(-h_m / 1500.0)
                + self.ground_cn2 * np.exp(-h_m / 100.0))

    def wind(self, h_m: float | np.ndarray) -> float | np.ndarray:
        """Bufton wind speed at altitude(s) ``h_m`` with slew pseudo-wind, m/s."""
        if np.any(h_m < 0):
            raise ValueError(f"altitude must be >= 0, got {h_m}")
        return (self.slew_rate * h_m + self.ground_wind
                + 30.0 * np.exp(-(((h_m - 9400.0) / 4800.0) ** 2)))


@dataclass(frozen=True)
class SlantPath:
    """Slant propagation path for turbulence moments.

    ``h_low`` is the receiver altitude of a downlink; integration runs
    from ``h_low`` up to ``h_high`` (capped separately for the moments,
    Cn^2 being negligible above ~30 km).  ``zenith_rad`` and
    ``wavelength_m`` are floats or arrays that broadcast together; the
    metrics return that broadcast shape.
    """

    zenith_rad: float | np.ndarray
    h_low_m: float
    h_high_m: float
    wavelength_m: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all((0.0 <= self.zenith_rad) & (self.zenith_rad < math.pi / 2)):
            raise ValueError(f"zenith must be in [0, pi/2), got {self.zenith_rad}")
        if self.h_low_m < 0 or self.h_high_m <= self.h_low_m:
            raise ValueError(
                f"need h_high > h_low >= 0, got {self.h_high_m}, {self.h_low_m}")
        if not np.all(self.wavelength_m > 0):
            raise ValueError(f"wavelength must be > 0, got {self.wavelength_m}")


def _moment(profile: TurbulenceProfile, weight: str, h_low: float,
            h_high: float) -> float:
    """Height integral of Cn^2(h) times the weight named ``"one"``,
    ``"wind"`` (V(h)^(5/3)) or ``"path"`` ((h - h_low)^(5/6)).

    With h = h_low + L u^6, L = h_high - h_low, the integral runs over
    u in [0, 1] with dh = 6 L u^5 du, and the module's composite
    Gauss-Legendre rule evaluates the integrand once on all 512 nodes
    (the profile's value may be an array or a scalar).
    On the three bundled profiles and all three weights this agrees with
    a 30-digit reference within 1.2e-15 relative.

    Raises ``ValueError`` on an empty or reversed height range, as when
    the receiver sits at or above the integration cap.
    """
    if not h_low < h_high:
        raise ValueError(f"empty height range from {h_low:.6g} m to {h_high:.6g} m")
    span = h_high - h_low
    rise = span * _U6
    h = h_low + rise
    f = profile.cn2(h)
    if weight == "wind":
        f = f * profile.wind(h) ** (5.0 / 3.0)
    elif weight == "path":
        f = f * rise ** (5.0 / 6.0)
    value = float(np.sum(_DU_WEIGHTS * f)) * span
    if not math.isfinite(value):
        raise ArithmeticError("turbulence moment integral is non-finite")
    return value


def fried_r0(profile: TurbulenceProfile, path: SlantPath,
             h_cap_m: float = H_INTEGRATION_CAP) -> float | np.ndarray:
    """Fried coherence length r0 along the slant path, m.

        r0 = [0.423 k^2 sec(zeta) integral Cn^2(h) dh]^(-3/5),  k = 2 pi / lambda

    Larger r0 means milder wavefront distortion; r0 scales as
    wavelength^(6/5) and cos(zeta)^(3/5).
    """
    k = 2.0 * math.pi / path.wavelength_m
    h_top = min(path.h_high_m, h_cap_m)
    mu0 = _moment(profile, "one", path.h_low_m, h_top)
    sec_z = 1.0 / np.cos(path.zenith_rad)
    return (0.423 * k * k * sec_z * mu0) ** (-3.0 / 5.0)


def greenwood_frequency(profile: TurbulenceProfile, path: SlantPath,
                        h_cap_m: float = H_INTEGRATION_CAP) -> float | np.ndarray:
    """Greenwood frequency along the slant path, Hz.

        f_G = 2.31 lambda^(-6/5) [sec(zeta) integral Cn^2(h) V(h)^(5/3) dh]^(3/5)

    This is the closed-loop bandwidth an adaptive-optics system needs to
    keep up with the turbulence, with the wind profile carrying the
    slew-rate pseudo-wind of a tracked satellite.
    """
    h_top = min(path.h_high_m, h_cap_m)
    mu = _moment(profile, "wind", path.h_low_m, h_top)
    sec_z = 1.0 / np.cos(path.zenith_rad)
    return 2.31 * path.wavelength_m ** (-6.0 / 5.0) * (sec_z * mu) ** (3.0 / 5.0)


def scintillation_index(profile: TurbulenceProfile, path: SlantPath,
                        h_cap_m: float = H_INTEGRATION_CAP) -> float | np.ndarray:
    """Plane-wave Rytov variance for a downlink, reported as the SI.

        sigma_R^2 = 2.25 k^(7/6) sec^(11/6)(zeta)
                    integral Cn^2(h) (h - h_low)^(5/6) dh

    Valid in the weak-fluctuation regime; one warning is issued when any
    result reaches 1, where the Rytov approximation stops holding.
    """
    k = 2.0 * math.pi / path.wavelength_m
    h_top = min(path.h_high_m, h_cap_m)
    mu = _moment(profile, "path", path.h_low_m, h_top)
    sec_z = 1.0 / np.cos(path.zenith_rad)
    si = 2.25 * k ** (7.0 / 6.0) * sec_z ** (11.0 / 6.0) * mu
    if np.any(si >= 1.0):
        warnings.warn(
            f"scintillation index {np.max(si):.3g} >= 1: weak-fluctuation assumption "
            "violated", stacklevel=2)
    return si
