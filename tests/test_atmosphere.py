"""Turbulence profiles and slant-path moments."""

import math
import warnings

import numpy as np
import pytest

from skyqlink.atmosphere import (
    _W,
    _X,
    SlantPath,
    TurbulenceProfile,
    _moment,
    fried_r0,
    greenwood_frequency,
    scintillation_index,
)
from skyqlink.scenario import parse_scenario
from skyqlink.scenarios import bundled_path
from skyqlink.studies import build_turbulence_profile

WL_RATIO = (1550.0 / 810.0) ** (6.0 / 5.0)


class ConstantProfile:
    """Uniform Cn^2 and wind stub for closed-form oracle checks."""

    def __init__(self, cn2_value, wind_value):
        self._cn2 = cn2_value
        self._wind = wind_value

    def cn2(self, h):
        return self._cn2

    def wind(self, h):
        return self._wind


def simpson_moment(f, a, b, n):
    """Fixed-step composite Simpson quadrature (independent of scipy)."""
    if n % 2:
        n += 1
    h = np.linspace(a, b, n + 1)
    y = np.array([f(x) for x in h])
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((h[1] - h[0]) / 3.0 * np.sum(w * y))


class TestCn2:
    def test_ground_value(self):
        # First HV term vanishes exactly at h = 0.
        prof = TurbulenceProfile(ground_cn2=1.7e-14)
        assert prof.cn2(0.0) == pytest.approx(2.7e-16 + 1.7e-14, rel=1e-12)

    def test_decays_to_zero(self):
        prof = TurbulenceProfile()
        assert prof.cn2(200e3) < 1e-30

    def test_finite_positive_below_100km(self):
        prof = TurbulenceProfile()
        values = [prof.cn2(h) for h in np.linspace(0.0, 100e3, 500)]
        assert all(v > 0 and math.isfinite(v) for v in values)

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            TurbulenceProfile().cn2(-1.0)


class TestWind:
    def test_tropopause_peak(self):
        prof = TurbulenceProfile(ground_wind=5.0, slew_rate=0.0)
        assert prof.wind(9400.0) == pytest.approx(35.0, rel=1e-12)

    def test_high_altitude_limit(self):
        prof = TurbulenceProfile(ground_wind=5.0, slew_rate=0.0)
        assert prof.wind(1e6) == pytest.approx(5.0, rel=1e-9)

    def test_slew_term(self):
        # Direct-evaluation oracle for the slewed profile at 20 km.
        prof = TurbulenceProfile(ground_wind=5.0, slew_rate=0.0147)
        expected = 0.0147 * 20e3 + 5.0 + 30.0 * math.exp(-((20e3 - 9400.0) / 4800.0) ** 2)
        assert prof.wind(20e3) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(299.3, abs=0.1)


class TestFried:
    def test_wavelength_scaling(self):
        prof = TurbulenceProfile()
        p810 = SlantPath(math.radians(30.0), 0.0, 535e3, 810e-9)
        p1550 = SlantPath(math.radians(30.0), 0.0, 535e3, 1550e-9)
        ratio = fried_r0(prof, p1550) / fried_r0(prof, p810)
        assert ratio == pytest.approx(WL_RATIO, rel=1e-9)

    def test_zenith_scaling(self):
        prof = TurbulenceProfile()
        z = math.radians(50.0)
        r_z = fried_r0(prof, SlantPath(z, 0.0, 535e3, 810e-9))
        r_0 = fried_r0(prof, SlantPath(0.0, 0.0, 535e3, 810e-9))
        assert r_z / r_0 == pytest.approx(math.cos(z) ** (3.0 / 5.0), rel=1e-9)

    def test_constant_profile_closed_form(self):
        c, height = 1e-16, 10e3
        prof = ConstantProfile(c, 10.0)
        z = math.radians(40.0)
        k = 2.0 * math.pi / 810e-9
        expected = (0.423 * k * k / math.cos(z) * c * height) ** (-0.6)
        got = fried_r0(prof, SlantPath(z, 0.0, height, 810e-9))
        assert got == pytest.approx(expected, rel=1e-3)

    def test_decreases_with_zenith(self):
        prof = TurbulenceProfile()
        vals = [fried_r0(prof, SlantPath(math.radians(z), 0.0, 535e3, 810e-9))
                for z in (0, 20, 40, 60, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestGreenwood:
    def test_wavelength_scaling(self):
        prof = TurbulenceProfile(slew_rate=0.014)
        p810 = SlantPath(math.radians(30.0), 0.0, 535e3, 810e-9)
        p1550 = SlantPath(math.radians(30.0), 0.0, 535e3, 1550e-9)
        ratio = greenwood_frequency(prof, p810) / greenwood_frequency(prof, p1550)
        assert ratio == pytest.approx(WL_RATIO, rel=1e-9)

    def test_constant_profile_closed_form(self):
        c, v0, height = 1e-16, 12.0, 10e3
        prof = ConstantProfile(c, v0)
        z = math.radians(25.0)
        expected = 2.31 * (810e-9) ** (-1.2) * (c * height / math.cos(z)) ** 0.6 * v0
        got = greenwood_frequency(prof, SlantPath(z, 0.0, height, 810e-9))
        assert got == pytest.approx(expected, rel=1e-3)

    def test_increases_with_zenith_and_slew(self):
        prof = TurbulenceProfile(slew_rate=0.014)
        vals = [greenwood_frequency(prof, SlantPath(math.radians(z), 0.0, 535e3, 1550e-9))
                for z in (0, 20, 40, 60, 80)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        slow = TurbulenceProfile(slew_rate=0.001)
        fast = TurbulenceProfile(slew_rate=0.02)
        path = SlantPath(math.radians(30.0), 0.0, 535e3, 1550e-9)
        assert greenwood_frequency(fast, path) > greenwood_frequency(slow, path)

    def test_1550_stays_under_ao_bandwidth(self):
        # Default LEO-to-ground scenario profile: slew-corrected upper wind.
        prof = TurbulenceProfile(rms_upper_wind=85.0, ground_wind=5.0,
                                 slew_rate=0.0142)
        for z in np.linspace(0.0, 80.0, 17):
            path = SlantPath(math.radians(z), 0.0, 535e3, 1550e-9)
            assert greenwood_frequency(prof, path) <= 1500.0


class TestScintillationIndex:
    def test_zero_turbulence(self):
        prof = ConstantProfile(0.0, 5.0)
        si = scintillation_index(prof, SlantPath(0.0, 0.0, 20e3, 810e-9))
        assert si == 0.0

    def test_zenith_scaling(self):
        prof = TurbulenceProfile()
        z = math.radians(45.0)
        si_z = scintillation_index(prof, SlantPath(z, 1e3, 20e3, 810e-9))
        si_0 = scintillation_index(prof, SlantPath(0.0, 1e3, 20e3, 810e-9))
        assert si_z / si_0 == pytest.approx((1.0 / math.cos(z)) ** (11.0 / 6.0), rel=1e-9)

    def test_haps_laps_weak_fluctuation(self):
        prof = TurbulenceProfile()
        si = scintillation_index(prof, SlantPath(math.radians(40.0), 1e3, 20e3, 810e-9))
        assert si < 0.5

    def test_warns_when_strong(self):
        prof = TurbulenceProfile(rms_upper_wind=85.0, slew_rate=0.0142)
        with pytest.warns(UserWarning, match="weak-fluctuation"):
            scintillation_index(prof, SlantPath(math.radians(70.0), 0.0, 535e3, 810e-9))


class TestQuadratureAgreement:
    """Fixed Gauss-Legendre moments vs 10x-refined fixed-step Simpson, within 0.1%."""

    def test_all_three_moments(self):
        prof = TurbulenceProfile(rms_upper_wind=21.0, ground_wind=5.0,
                                 slew_rate=0.0142)
        z = math.radians(40.0)
        path = SlantPath(z, 0.0, 535e3, 810e-9)
        k = 2.0 * math.pi / path.wavelength_m
        sec_z = 1.0 / math.cos(z)
        cases = [
            (prof.cn2,
             lambda mu: (0.423 * k * k * sec_z * mu) ** (-0.6),
             fried_r0(prof, path)),
            (lambda h: prof.cn2(h) * prof.wind(h) ** (5.0 / 3.0),
             lambda mu: 2.31 * path.wavelength_m ** (-1.2) * (sec_z * mu) ** 0.6,
             greenwood_frequency(prof, path)),
            (lambda h: prof.cn2(h) * h ** (5.0 / 6.0),
             lambda mu: 2.25 * k ** (7.0 / 6.0) * sec_z ** (11.0 / 6.0) * mu,
             scintillation_index(prof, path)),
        ]
        for integrand, to_metric, computed in cases:
            coarse = simpson_moment(integrand, 0.0, 30e3, 2000)
            refined = simpson_moment(integrand, 0.0, 30e3, 20000)
            assert abs(refined - coarse) / refined < 1e-3
            assert computed == pytest.approx(to_metric(refined), rel=1e-3)


class TestStoredRule:
    """The stored 32-point Gauss-Legendre table against numpy's own rule."""

    def test_table_is_mirror_symmetric(self):
        assert len(_X) == len(_W) == 32
        assert np.array_equal(_X, -_X[::-1])
        assert np.array_equal(_W, _W[::-1])
        assert np.all(np.diff(_X) > 0)

    def test_nodes_and_weights_match_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(32)
        assert np.all(np.abs(_X - x) <= np.spacing(np.abs(x)))
        assert np.all(np.abs(_W - w) <= np.spacing(w))

    def test_weights_sum_to_two(self):
        assert abs(math.fsum(_W) - 2.0) <= np.spacing(2.0)


class TestMomentRule:
    """The fixed Gauss-Legendre rule against closed forms and 30-digit values."""

    # Each recipe's profile from pass.rx_altitude_km to min(tx_altitude_km,
    # h_cap_km), integrated at 40 digits with mpmath 1.3.0 (tanh-sinh, split
    # at the profile's knees).  Gauss-Legendre at 45 digits on 40 panels of
    # the u^6 substitution agrees in all 30 digits shown.
    REFERENCE = {
        "fig2_leo_haps": (20e3, 30e3, {
            "one": 1.40753371499823007706680385859e-15,
            "wind": 2.11506572237505429456926574281e-14,
            "path": 6.66935645924858713661338399551e-13}),
        "fig3_haps_laps": (1e3, 20e3, {
            "one": 2.73819174453537754666853921088e-13,
            "wind": 2.67042331909066751073594564391e-11,
            "path": 2.26113958111241669976715490404e-10}),
        "fig4_leo_ground": (0.0, 30e3, {
            "one": 4.24124025574380805354124614569e-12,
            "wind": 1.30751812486256517902275265041e-8,
            "path": 5.19477498688056509938387195495e-9}),
    }

    @pytest.mark.parametrize("h_low, h_high", [(0.0, 30e3), (1e3, 20e3),
                                               (1e3, 1e3 + 1.0)])
    def test_constant_profile_closed_forms(self, h_low, h_high):
        c, v = 3e-15, 20.0
        prof = ConstantProfile(c, v)
        span = h_high - h_low
        assert _moment(prof, "one", h_low, h_high) == pytest.approx(
            c * span, rel=1e-13, abs=0.0)
        assert _moment(prof, "wind", h_low, h_high) == pytest.approx(
            c * v ** (5.0 / 3.0) * span, rel=1e-13, abs=0.0)
        assert _moment(prof, "path", h_low, h_high) == pytest.approx(
            c * (6.0 / 11.0) * span ** (11.0 / 6.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("recipe", sorted(REFERENCE))
    def test_recipe_profiles_match_reference(self, recipe):
        prof = build_turbulence_profile(parse_scenario(bundled_path(recipe)))
        h_low, h_high, moments = self.REFERENCE[recipe]
        for weight, reference in moments.items():
            assert _moment(prof, weight, h_low, h_high) == pytest.approx(
                reference, rel=1e-13, abs=0.0), weight


class TestProfileArrays:
    PROFILE = TurbulenceProfile(rms_upper_wind=85.0, slew_rate=0.0142)
    HEIGHTS = np.array([0.0, 50.0, 1e3, 9.4e3, 2e4, 3e4, 1e5])

    @pytest.mark.parametrize("method", ["cn2", "wind"])
    def test_array_matches_scalar_calls(self, method):
        f = getattr(self.PROFILE, method)
        values = f(self.HEIGHTS)
        assert values.shape == self.HEIGHTS.shape
        assert values.tolist() == [f(h) for h in self.HEIGHTS.tolist()]

    @pytest.mark.parametrize("method", ["cn2", "wind"])
    def test_any_negative_altitude_rejected(self, method):
        with pytest.raises(ValueError, match="altitude"):
            getattr(self.PROFILE, method)(np.array([0.0, 1e3, -1e-9]))


class TestArrayPaths:
    """Array zeniths and wavelengths: one integral per metric, same values."""

    PROFILE = TurbulenceProfile(rms_upper_wind=85.0, slew_rate=0.0142)
    ZENITHS = np.radians(np.linspace(0.0, 80.0, 9))[:, None]
    WAVELENGTHS = np.array([810e-9, 1064e-9, 1550e-9])

    @pytest.mark.parametrize("metric", [fried_r0, greenwood_frequency,
                                        scintillation_index])
    def test_mesh_matches_scalar_calls(self, metric):
        path = SlantPath(self.ZENITHS, 0.0, 535e3, self.WAVELENGTHS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mesh = metric(self.PROFILE, path)
            scalar = [[metric(self.PROFILE, SlantPath(z, 0.0, 535e3, wl))
                       for wl in self.WAVELENGTHS.tolist()]
                      for z in self.ZENITHS.ravel().tolist()]
        assert mesh.shape == (9, 3)
        np.testing.assert_allclose(mesh, scalar, rtol=1e-14, atol=0.0)

    def test_float_input_gives_float(self):
        value = fried_r0(self.PROFILE, SlantPath(0.3, 0.0, 535e3, 810e-9))
        assert isinstance(value, float)

    def test_strong_scintillation_warns_once(self):
        path = SlantPath(self.ZENITHS, 0.0, 535e3, self.WAVELENGTHS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            si = scintillation_index(self.PROFILE, path)
        assert np.count_nonzero(si >= 1.0) > 1
        assert len(caught) == 1
        assert f"{si.max():.3g}" in str(caught[0].message)

    def test_any_bad_zenith_rejected(self):
        with pytest.raises(ValueError, match="zenith"):
            SlantPath(np.array([0.1, math.pi / 2]), 0.0, 535e3, 810e-9)

    def test_any_bad_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            SlantPath(0.1, 0.0, 535e3, np.array([810e-9, 0.0]))


class TestEmptyHeightRange:
    @pytest.mark.parametrize("h_low", [30e3, 100e3])
    def test_receiver_at_or_above_cap_rejected(self, h_low):
        path = SlantPath(0.0, h_low, 535e3, 810e-9)
        for metric in (fried_r0, greenwood_frequency, scintillation_index):
            with pytest.raises(ValueError, match="empty height range"):
                metric(TurbulenceProfile(), path, h_cap_m=30e3)
