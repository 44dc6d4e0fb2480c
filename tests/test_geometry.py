"""Pass geometry: slant range, pass propagation, slew rates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyqlink.constants import EARTH_RADIUS, GM_EARTH
from skyqlink.geometry import (
    propagate_pass,
    short_range_path,
    slant_range,
    static_pass,
)

# Platform altitudes in metres.
LEO = 535e3
HAPS = 20e3
LAPS = 1e3
GROUND = 0.0


class TestSlantRange:
    def test_zenith_pass_is_altitude_difference(self):
        assert slant_range(math.pi / 2, 535e3, 20e3) == pytest.approx(515e3, rel=1e-12)

    def test_horizon_range_matches_tangent_formula(self):
        # Independent oracle at zero elevation: L = sqrt(h^2 + 2 Re h) for a
        # ground receiver, from tangent-line geometry.
        h = 535e3
        expected = math.sqrt(h * h + 2.0 * EARTH_RADIUS * h)
        assert slant_range(0.0, h, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2665e3, rel=2e-3)

    def test_short_link_matches_flat_slant(self):
        # 20 km HAPS to 1 km LAPS at 40 deg zenith: 24.8 km communication
        # distance.  The spherical formula agrees with the flat-Earth slant
        # to much better than figure precision over 25 km.
        zen = math.radians(40.0)
        flat = short_range_path(zen, 20e3, 1e3)
        spherical = slant_range(math.pi / 2 - zen, 20e3, 1e3)
        assert flat == pytest.approx(19e3 / math.cos(zen), rel=1e-12)
        assert flat == pytest.approx(24.8e3, rel=2e-3)
        assert spherical == pytest.approx(flat, rel=2e-3)

    def test_rejects_inverted_altitudes(self):
        with pytest.raises(ValueError):
            slant_range(0.5, 10e3, 20e3)
        with pytest.raises(ValueError):
            slant_range(0.5, 20e3, 20e3)

    def test_rejects_out_of_range_elevation(self):
        with pytest.raises(ValueError):
            slant_range(-0.1, 535e3, 0.0)
        with pytest.raises(ValueError):
            slant_range(math.pi / 2 + 0.1, 535e3, 0.0)

    @given(st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-3))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_elevation(self, eps):
        lo = slant_range(eps, 535e3, 20e3)
        hi = slant_range(eps + 1e-3, 535e3, 20e3)
        assert hi < lo


class TestShortRangePath:
    def test_vertical(self):
        assert short_range_path(0.0, 20e3, 1e3) == pytest.approx(19e3, rel=1e-12)

    def test_paper_40deg(self):
        assert short_range_path(math.radians(40.0), 20e3, 1e3) == pytest.approx(
            24.8e3, rel=2e-3)

    def test_60deg_doubles(self):
        assert short_range_path(math.radians(60.0), 20e3, 1e3) == pytest.approx(
            38e3, rel=1e-12)

    def test_rejects_horizontal(self):
        with pytest.raises(ValueError):
            short_range_path(math.pi / 2, 20e3, 1e3)


class TestPropagatePass:
    def test_overhead_range_at_culmination(self):
        p = propagate_pass(LEO, HAPS)
        i0 = int(np.argmin(np.abs(p.t_s)))
        assert p.t_s[i0] == 0.0
        assert p.range_m[i0] == pytest.approx(515e3, rel=1e-9)
        assert p.elevation_rad[i0] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_elevation_profile_symmetric(self):
        p = propagate_pass(LEO, HAPS)
        assert np.max(np.abs(p.elevation_rad - p.elevation_rad[::-1])) < 1e-9
        assert np.max(np.abs(p.range_m - p.range_m[::-1]) / p.range_m) < 1e-9

    def test_range_consistent_with_slant_range(self):
        p = propagate_pass(LEO, GROUND, max_elevation_rad=math.radians(60.0))
        for i in range(0, len(p), 37):
            expected = slant_range(float(p.elevation_rad[i]), 535e3, 0.0)
            assert p.range_m[i] == pytest.approx(expected, rel=1e-6)

    def test_unimodal_with_peak_at_zero(self):
        p = propagate_pass(LEO, HAPS, max_elevation_rad=math.radians(70.0))
        i0 = int(np.argmax(p.elevation_rad))
        assert p.t_s[i0] == 0.0
        rising = np.diff(p.elevation_rad[: i0 + 1])
        falling = np.diff(p.elevation_rad[i0:])
        assert np.all(rising > 0)
        assert np.all(falling < 0)

    def test_duration_matches_brute_force_propagation(self):
        # Independent oracle: step the satellite around its circular orbit
        # at 0.1 s resolution, compute elevation from position vectors, and
        # locate where it falls below the 10 deg cut.  The sampled pass must
        # end within one sample interval of that boundary.
        p = propagate_pass(LEO, HAPS)
        r_orb = EARTH_RADIUS + 535e3
        r_sta = EARTH_RADIUS + 20e3
        omega = math.sqrt(GM_EARTH / r_orb**3)
        dt = 0.1
        t = np.arange(0.0, 1500.0, dt)
        sat = r_orb * np.stack([np.cos(omega * t), np.sin(omega * t),
                                np.zeros_like(t)], axis=1)
        sta = np.array([r_sta, 0.0, 0.0])
        los = sat - sta
        rng = np.linalg.norm(los, axis=1)
        sin_elev = (los @ (sta / r_sta)) / rng
        above = sin_elev >= math.sin(math.radians(10.0))
        t_boundary = float(t[np.argmin(above)])  # first instant below the cut
        t_last = float(p.t_s[-1])
        assert t_last <= t_boundary < t_last + 1.0 + dt
        assert p.duration_s == pytest.approx(2.0 * t_boundary, abs=2.0)

    def test_max_elevation_honoured(self):
        p = propagate_pass(LEO, GROUND, max_elevation_rad=math.radians(45.0))
        assert float(np.max(p.elevation_rad)) == pytest.approx(
            math.radians(45.0), abs=1e-9)

    def test_unreachable_max_elevation_rejected(self):
        with pytest.raises(ValueError):
            propagate_pass(LEO, HAPS, max_elevation_rad=math.radians(5.0))
        with pytest.raises(ValueError):
            propagate_pass(LEO, HAPS, max_elevation_rad=math.radians(95.0))

    def test_altitude_validation(self):
        with pytest.raises(ValueError, match="orbit altitude must exceed"):
            propagate_pass(HAPS, LEO)
        with pytest.raises(ValueError, match="orbit altitude must exceed"):
            propagate_pass(LEO, LEO)
        with pytest.raises(ValueError, match="station altitude must be >= 0"):
            propagate_pass(LEO, -1.0)
        with pytest.raises(ValueError, match="low altitude must be >= 0"):
            static_pass(HAPS, -1.0, math.radians(40.0))
        with pytest.raises(ValueError, match="must exceed low altitude"):
            static_pass(LAPS, HAPS, math.radians(40.0))


class TestSlewRate:
    def test_static_pair_has_zero_slew(self):
        p = static_pass(HAPS, LAPS, math.radians(40.0))
        for i in range(len(p)):
            assert p.slew_rad_s[i] == 0.0

    def test_overhead_peak_matches_analytic_formula(self):
        # Oracle: at culmination the full orbital velocity is transverse to
        # the line of sight, so slew = v_orb / (h_orb - h_sta).
        for station in (GROUND, HAPS):
            p = propagate_pass(LEO, station, sample_interval_s=0.5)
            v_orb = math.sqrt(GM_EARTH / (EARTH_RADIUS + 535e3))
            expected = v_orb / (535e3 - station)
            i0 = int(np.argmin(np.abs(p.t_s)))
            assert p.slew_rad_s[i0] == pytest.approx(expected, rel=5e-3)

    def test_peak_slew_at_culmination(self):
        p = propagate_pass(LEO, HAPS)
        i0 = int(np.argmin(np.abs(p.t_s)))
        assert p.slew_rad_s[i0] == p.peak_slew_rad_s
        assert p.slew_rad_s[0] < p.slew_rad_s[i0]
        assert p.slew_rad_s[len(p) - 1] < p.slew_rad_s[i0]

    def test_always_nonnegative(self):
        p = propagate_pass(LEO, GROUND, max_elevation_rad=math.radians(30.0))
        assert np.all(p.slew_rad_s >= 0)


class TestPassGeometryContainer:
    def test_arrays_read_only(self):
        p = propagate_pass(LEO, HAPS)
        with pytest.raises(ValueError):
            p.range_m[0] = 1.0

    def test_sample_iteration(self):
        p = static_pass(HAPS, LAPS, math.radians(40.0), duration_s=10.0)
        assert len(p.range_m) == len(p)
        assert math.pi / 2 - p.elevation_rad[0] == pytest.approx(math.radians(40.0))
        assert p.range_m[0] == pytest.approx(24.8e3, rel=2e-3)


class TestPassLimits:
    def test_degenerate_pass_raises_before_dividing(self):
        # Altitudes 1e-9 m apart cancel to a zero range in floating point.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ranges must be positive"):
                propagate_pass(1e-9, GROUND)

    def test_orbital_sample_cap(self):
        # An interval just short enough to put the pass over the cap.
        n_half = (len(propagate_pass(LEO, HAPS)) - 1) // 2
        interval = n_half / 500_000.5
        with pytest.raises(ValueError, match="more than 1000000 samples"):
            propagate_pass(LEO, HAPS, sample_interval_s=interval)

    def test_static_sample_cap(self):
        with pytest.raises(ValueError, match="more than 1000000 samples"):
            static_pass(HAPS, LAPS, math.radians(40.0),
                        duration_s=1e6, sample_interval_s=1.0)
