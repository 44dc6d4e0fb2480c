"""Pass geometry between two platforms on a spherical, non-rotating Earth.

Covers both an orbiting transmitter seen from a quasi-static station
(LEO satellite over a ground station or HAPS, :func:`propagate_pass`)
and short links between two quasi-static platforms (HAPS to LAPS,
:func:`static_pass`).  Each platform is given by its altitude in metres;
the slow drift of HAPS and LAPS (10-30 m/s) is irrelevant to pass
geometry.  Earth rotation during a ~10 minute pass changes the range by
well under 1% and is neglected.  A pass is a set of arrays
(time, elevation, slant range and slew) of at most ``MAX_PASS_SAMPLES``
samples, which the channel takes whole and callers index directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS, GM_EARTH

MAX_PASS_SAMPLES = 10**6


@dataclass(frozen=True)
class PassGeometry:
    """Time series of elevation, slant range and slew over one pass.

    Time is measured relative to the instant of maximum elevation, so the
    elevation profile is unimodal with its peak at ``t = 0``.  Arrays are
    read-only; instances are safe to share across threads.
    """

    t_s: np.ndarray
    elevation_rad: np.ndarray
    range_m: np.ndarray
    slew_rad_s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("t_s", "elevation_rad", "range_m", "slew_rad_s"):
            arr = getattr(self, name)
            arr.flags.writeable = False
        if np.any(np.diff(self.t_s) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(self.range_m <= 0):
            raise ValueError("ranges must be positive")

    def __len__(self) -> int:
        return len(self.t_s)

    @property
    def duration_s(self) -> float:
        """Time spent above the horizon-elevation cut, first to last sample."""
        return float(self.t_s[-1] - self.t_s[0])

    @property
    def peak_slew_rad_s(self) -> float:
        return float(np.max(self.slew_rad_s))


def slant_range(elevation_rad: float, h_tx_m: float, h_rx_m: float) -> float:
    """Slant range between a receiver and a higher transmitter.

    Law-of-cosines range on a spherical Earth:

        L = sqrt((Re+h_tx)^2 - (Re+h_rx)^2 cos^2(eps)) - (Re+h_rx) sin(eps)

    where ``eps`` is the elevation of the transmitter seen from the
    receiver.  At zenith this reduces to the altitude difference.

    Raises
    ------
    ValueError
        If ``h_tx_m <= h_rx_m`` or elevation is outside [0, pi/2].
    """
    if h_rx_m < 0:
        raise ValueError(f"receiver altitude must be >= 0, got {h_rx_m}")
    if h_tx_m <= h_rx_m:
        raise ValueError(
            f"transmitter altitude {h_tx_m} must exceed receiver altitude {h_rx_m}")
    if not 0.0 <= elevation_rad <= math.pi / 2:
        raise ValueError(f"elevation must be in [0, pi/2], got {elevation_rad}")
    r_tx = EARTH_RADIUS + h_tx_m
    r_rx = EARTH_RADIUS + h_rx_m
    cos_e = math.cos(elevation_rad)
    return math.sqrt(r_tx * r_tx - (r_rx * cos_e) ** 2) - r_rx * math.sin(elevation_rad)


def short_range_path(zenith_rad: float, h_high_m: float, h_low_m: float) -> float:
    """Flat-Earth slant distance for short (sub-100 km) links.

    Returns ``(h_high - h_low) / cos(zenith)``.  Earth curvature over such
    paths is negligible next to the pointing and turbulence uncertainties.
    """
    if h_high_m <= h_low_m:
        raise ValueError(
            f"high platform altitude {h_high_m} must exceed low altitude {h_low_m}")
    if not 0.0 <= zenith_rad < math.pi / 2:
        raise ValueError(f"zenith angle must be in [0, pi/2), got {zenith_rad}")
    return (h_high_m - h_low_m) / math.cos(zenith_rad)


def _central_angle(elevation_rad: float, r_station: float, r_orbit: float) -> float:
    """Earth-central angle between station and sub-satellite point at a
    given elevation of the satellite above the station's horizon."""
    return (math.pi / 2 - elevation_rad
            - math.asin(r_station * math.cos(elevation_rad) / r_orbit))


def _slew_from_los(t_s: np.ndarray, los_unit: np.ndarray) -> np.ndarray:
    """Angular rate of the line-of-sight unit vector.

    Central differences on the interior grid, one-sided at the endpoints.
    """
    n = len(t_s)
    if n == 1:
        return np.zeros(1)
    lo = np.maximum(np.arange(n) - 1, 0)
    hi = np.minimum(np.arange(n) + 1, n - 1)
    # Row-wise dot products as (n,1,3) @ (n,3,1): the same sums as np.dot.
    dot = (los_unit[lo, None, :] @ los_unit[hi, :, None])[:, 0, 0]
    return np.arccos(np.clip(dot, -1.0, 1.0)) / (t_s[hi] - t_s[lo])


def _half_count(half_span_s: float, sample_interval_s: float) -> int:
    """Samples n on each side of t = 0; a pass holds 2 n + 1 of them."""
    half = half_span_s / sample_interval_s + 1e-12
    if not half < MAX_PASS_SAMPLES // 2:
        raise ValueError(f"pass would hold more than {MAX_PASS_SAMPLES} samples")
    return int(math.floor(half))


def propagate_pass(orbit_altitude_m: float, station_altitude_m: float,
                   max_elevation_rad: float = math.pi / 2,
                   sample_interval_s: float = 1.0,
                   horizon_elevation_rad: float = math.radians(10.0)) -> PassGeometry:
    """Propagate a circular-orbit pass over a quasi-static station.

    The satellite moves on a circular orbit at angular rate
    ``omega = sqrt(GM / (Re + h_orb)^3)``; the Earth-central angle between
    station and satellite evolves as ``cos(gamma) = cos(beta) cos(omega t)``
    where ``beta`` is the cross-track central angle fixed by the requested
    maximum elevation (``beta = 0`` is the overhead pass).  Elevation
    follows from ``sin(eps) = ((Re+h_orb) cos(gamma) - (Re+h_sta)) / L``
    with ``L`` by the law of cosines.

    Samples cover the interval where elevation >= ``horizon_elevation_rad``
    symmetrically around the maximum-elevation epoch ``t = 0``.

    Raises
    ------
    ValueError
        If the station altitude is negative or not below the orbit, the
        requested maximum elevation is not reachable (outside
        ``[horizon_elevation_rad, pi/2]``), the pass is too long, or the
        altitudes are too close for a positive floating-point range.
    """
    if station_altitude_m < 0:
        raise ValueError(f"station altitude must be >= 0, got {station_altitude_m}")
    if orbit_altitude_m <= station_altitude_m:
        raise ValueError("orbit altitude must exceed station altitude")
    if sample_interval_s <= 0:
        raise ValueError(f"sample interval must be > 0, got {sample_interval_s}")
    if not 0.0 <= horizon_elevation_rad < math.pi / 2:
        raise ValueError("horizon elevation must be in [0, pi/2)")
    if not horizon_elevation_rad <= max_elevation_rad <= math.pi / 2:
        raise ValueError(
            f"max elevation {max_elevation_rad} not reachable: must lie in "
            f"[{horizon_elevation_rad}, {math.pi / 2}]")

    r_sta = EARTH_RADIUS + station_altitude_m
    r_orb = EARTH_RADIUS + orbit_altitude_m
    omega = math.sqrt(GM_EARTH / r_orb**3)

    beta = _central_angle(max_elevation_rad, r_sta, r_orb)
    gamma_h = _central_angle(horizon_elevation_rad, r_sta, r_orb)
    # beta <= gamma_h is guaranteed by the max-elevation bound check above.
    cos_ratio = min(1.0, math.cos(gamma_h) / math.cos(beta))
    t_end = math.acos(cos_ratio) / omega

    n_half = _half_count(t_end, sample_interval_s)
    t = np.arange(-n_half, n_half + 1, dtype=float) * sample_interval_s

    cos_gamma = math.cos(beta) * np.cos(omega * t)
    rng_sq = r_orb**2 + r_sta**2 - 2.0 * r_orb * r_sta * cos_gamma
    if not np.all(rng_sq > 0):
        raise ValueError("ranges must be positive")
    rng = np.sqrt(rng_sq)
    sin_eps = (r_orb * cos_gamma - r_sta) / rng
    elevation = np.arcsin(np.clip(sin_eps, -1.0, 1.0))

    # Station sits in the plane tilted by beta out of the orbit plane.
    station_pos = r_sta * np.array([math.cos(beta), 0.0, math.sin(beta)])
    sat_pos = r_orb * np.stack(
        [np.cos(omega * t), np.sin(omega * t), np.zeros_like(t)], axis=1)
    los = sat_pos - station_pos
    los_unit = los / np.linalg.norm(los, axis=1, keepdims=True)
    return PassGeometry(
        t_s=t,
        elevation_rad=elevation,
        range_m=rng,
        slew_rad_s=_slew_from_los(t, los_unit),
    )


def static_pass(high_altitude_m: float, low_altitude_m: float, zenith_rad: float,
                duration_s: float = 60.0,
                sample_interval_s: float = 1.0) -> PassGeometry:
    """Constant-geometry 'pass' between two quasi-static platforms, the
    higher one seen at ``zenith_rad`` from the lower.

    Produces the same sample layout as :func:`propagate_pass` so the
    channel and protocol layers can consume either; elevation, range and
    (zero) slew are constant over the window.
    """
    if low_altitude_m < 0:
        raise ValueError(f"low altitude must be >= 0, got {low_altitude_m}")
    if sample_interval_s <= 0:
        raise ValueError(f"sample interval must be > 0, got {sample_interval_s}")
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")

    rng = short_range_path(zenith_rad, high_altitude_m, low_altitude_m)
    n_half = max(1, _half_count(duration_s / 2.0, sample_interval_s))
    t = np.arange(-n_half, n_half + 1, dtype=float) * sample_interval_s
    return PassGeometry(
        t_s=t,
        elevation_rad=np.full_like(t, math.pi / 2 - zenith_rad),
        range_m=np.full_like(t, rng),
        slew_rad_s=np.zeros_like(t),
    )
