"""Channel transmittance and background-count model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyqlink.channel import (
    LinkBudget,
    _equivalent_beam,
    NoiseEnvironment,
    background_counts,
    beam_radius,
    centered_transmittance,
    link_timeseries,
    pointing_transmittance_expected,
    pointing_transmittance_mc,
    system_loss,
)
from skyqlink.geometry import propagate_pass, static_pass


def make_budget(**kw):
    defaults = dict(wavelength=810e-9, divergence_full=33e-6,
                    tx_aperture=0.09, rx_aperture=0.35)
    defaults.update(kw)
    return LinkBudget(**defaults)


class TestBeamRadius:
    def test_leo_haps_footprint(self):
        w = beam_radius(make_budget(), 515e3)
        assert w == pytest.approx(16.5e-6 * 515e3, rel=1e-12)
        assert w == pytest.approx(8.50, abs=0.005)

    def test_wide_divergence_footprint(self):
        w = beam_radius(make_budget(divergence_full=1e-3), 24.8e3)
        assert w == pytest.approx(12.4, rel=1e-3)

    def test_linear_in_divergence(self):
        w1 = beam_radius(make_budget(divergence_full=33e-6), 1e5)
        w2 = beam_radius(make_budget(divergence_full=66e-6), 1e5)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            beam_radius(make_budget(), 0.0)


class TestCenteredTransmittance:
    def test_large_aperture_limit(self):
        eta = centered_transmittance(make_budget(rx_aperture=100.0), 1e3)
        assert eta == pytest.approx(1.0, abs=1e-12)

    def test_small_aperture_expansion(self):
        budget = make_budget(rx_aperture=0.01)
        rng = 1e6
        a = 0.005
        w = beam_radius(budget, rng)
        assert centered_transmittance(budget, rng) == pytest.approx(
            2.0 * a * a / (w * w), rel=1e-3)

    def test_matched_aperture_identity(self):
        # a = w / sqrt(2) makes the exponent exactly 1.
        rng = 2e5
        w = beam_radius(make_budget(), rng)
        budget = make_budget(rx_aperture=2.0 * w / math.sqrt(2.0))
        assert centered_transmittance(budget, rng) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)


class TestPointingTransmittance:
    def test_zero_jitter_returns_peak(self):
        budget = make_budget(pointing_sigma=0.0)
        rng = 515e3
        a = 0.5 * budget.rx_aperture
        w = beam_radius(budget, rng)
        v = math.sqrt(math.pi / 2.0) * a / w
        assert pointing_transmittance_expected(budget, rng) == pytest.approx(
            math.erf(v) ** 2, rel=1e-12)

    def test_unit_fade_parameter_halves_peak(self):
        # Choose sigma so gamma = w_eq^2 / (4 sigma_d^2) = 1.
        budget = make_budget()
        rng = 515e3
        a = 0.5 * budget.rx_aperture
        w = beam_radius(budget, rng)
        v = math.sqrt(math.pi / 2.0) * a / w
        w_eq_sq = w * w * math.sqrt(math.pi) * math.erf(v) / (2.0 * v * math.exp(-v * v))
        sigma = math.sqrt(w_eq_sq / 4.0) / rng
        eta = pointing_transmittance_expected(make_budget(pointing_sigma=sigma), rng)
        a0 = pointing_transmittance_expected(budget, rng)
        assert eta == pytest.approx(a0 / 2.0, rel=1e-9)

    def test_monte_carlo_agreement_small_grid(self):
        # Full 5x5x5 grid runs in the acceptance suite; spot-check here.
        rng_m = 515e3
        for div in (33e-6, 200e-6):
            for sigma in (1e-6, 5e-6, 2e-5):
                budget = make_budget(divergence_full=div, pointing_sigma=sigma)
                closed = pointing_transmittance_expected(budget, rng_m)
                mc = pointing_transmittance_mc(budget, rng_m, n_draws=200_000)
                assert mc == pytest.approx(closed, rel=1e-2)

    @given(st.floats(min_value=1e-7, max_value=5e-5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_sigma(self, sigma):
        rng = 515e3
        lo = pointing_transmittance_expected(make_budget(pointing_sigma=sigma), rng)
        hi = pointing_transmittance_expected(
            make_budget(pointing_sigma=sigma * 1.5), rng)
        assert hi <= lo

    def test_bounded_by_centered(self):
        budget = make_budget(pointing_sigma=3.3e-6)
        for rng in (50e3, 515e3, 2e6):
            eta_p = pointing_transmittance_expected(budget, rng)
            assert 0.0 <= eta_p <= centered_transmittance(budget, rng) <= 1.0

    def test_monotone_in_range(self):
        budget = make_budget(pointing_sigma=3.3e-6)
        values = [pointing_transmittance_expected(budget, rng)
                  for rng in (100e3, 300e3, 515e3, 1000e3, 2000e3)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEquivalentBeam:
    A = 0.175
    WIDTHS = A * np.geomspace(0.2, 50.0, 41)

    def test_array_matches_math_erf_bits(self):
        a0, w_eq_sq = _equivalent_beam(self.A, self.WIDTHS)
        w = self.WIDTHS
        v = math.sqrt(math.pi / 2.0) * self.A / w
        erf_v = np.array([math.erf(x) for x in v.tolist()])
        np.testing.assert_array_equal(a0, erf_v * erf_v)
        np.testing.assert_array_equal(
            w_eq_sq, w * w * math.sqrt(math.pi) * erf_v / (2.0 * v * np.exp(-v * v)))

    def test_float_in_gives_float64(self):
        a0, w_eq_sq = _equivalent_beam(self.A, 0.3)
        assert type(a0) is np.float64
        assert type(w_eq_sq) is np.float64


class TestSystemLoss:
    def test_ideal_link_is_lossless(self):
        budget = make_budget(rx_aperture=1e3, pointing_sigma=0.0,
                             eta_tx=1.0, eta_rx=1.0, eta_det=1.0, eta_atm=1.0)
        loss = system_loss(budget, 1e3)
        assert loss.transmittance == pytest.approx(1.0, abs=1e-9)
        assert loss.db == pytest.approx(0.0, abs=1e-8)

    def test_halving_detector_efficiency_adds_3dB(self):
        full = system_loss(make_budget(eta_det=0.8), 515e3).db
        half = system_loss(make_budget(eta_det=0.4), 515e3).db
        assert half - full == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_db_additivity(self):
        budget = make_budget(pointing_sigma=3.3e-6, eta_tx=0.8, eta_rx=0.7,
                             eta_det=0.5, eta_atm=0.9)
        rng = 515e3
        total = system_loss(budget, rng).db
        parts = (-10.0 * math.log10(pointing_transmittance_expected(budget, rng))
                 - 10.0 * math.log10(0.8) - 10.0 * math.log10(0.7)
                 - 10.0 * math.log10(0.5) - 10.0 * math.log10(0.9))
        assert total == pytest.approx(parts, abs=1e-9)


class TestNoiseEnvironment:
    @pytest.mark.parametrize("name", ["spectral_radiance", "fov", "filter_bandwidth",
                                      "gate_time", "dark_count_rate"])
    def test_negative_field_names_itself(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0$"):
            NoiseEnvironment(**{name: -1e-12})

    def test_zero_fields_accepted(self):
        NoiseEnvironment(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_radiance_array_with_one_negative_entry(self):
        NoiseEnvironment(spectral_radiance=np.array([0.0, 1e-3, 2e-3]))
        with pytest.raises(ValueError, match="^spectral_radiance must be >= 0$"):
            NoiseEnvironment(spectral_radiance=np.array([1e-3, -1e-9, 2e-3]))


class TestBackgroundCounts:
    def test_dark_only_and_zero(self):
        budget = make_budget()
        env = NoiseEnvironment(spectral_radiance=0.0, dark_count_rate=0.0)
        assert background_counts(env, budget) == 0.0
        env = NoiseEnvironment(spectral_radiance=0.0, dark_count_rate=200.0,
                               gate_time=1e-9)
        assert background_counts(env, budget) == pytest.approx(2e-7, rel=1e-12)

    def test_linear_in_filter_bandwidth(self):
        budget = make_budget()
        env1 = NoiseEnvironment(spectral_radiance=1e-2, filter_bandwidth=1.0,
                                dark_count_rate=0.0)
        env2 = NoiseEnvironment(spectral_radiance=1e-2, filter_bandwidth=2.0,
                                dark_count_rate=0.0)
        assert background_counts(env2, budget) == pytest.approx(
            2.0 * background_counts(env1, budget), rel=1e-12)

    def test_dimensional_oracle(self):
        # Spreadsheet-style recomputation of the daytime reference point:
        # H_b = 1e-2 W m^-2 nm^-1 sr^-1, 1e-8 sr, 15 cm aperture, 1 nm
        # filter, 1 ns gate, 810 nm.
        budget = make_budget(rx_aperture=0.15, eta_rx=0.8, eta_det=0.5)
        env = NoiseEnvironment(spectral_radiance=1e-2, fov=1e-8,
                               filter_bandwidth=1.0, gate_time=1e-9,
                               dark_count_rate=0.0)
        collected_power_w = 1e-2 * 1e-8 * (math.pi * 0.075**2) * 1.0
        photon_energy_j = 6.62607015e-34 * 299792458.0 / 810e-9
        expected = collected_power_w * 1e-9 / photon_energy_j * 0.8 * 0.5
        assert background_counts(env, budget) == pytest.approx(expected, rel=1e-6)

    def test_linearity_in_radiance_fov_area(self):
        budget = make_budget()
        base = NoiseEnvironment(spectral_radiance=1e-3, fov=1e-9,
                                dark_count_rate=0.0)
        b0 = background_counts(base, budget)
        twice_rad = NoiseEnvironment(spectral_radiance=2e-3, fov=1e-9,
                                     dark_count_rate=0.0)
        twice_fov = NoiseEnvironment(spectral_radiance=1e-3, fov=2e-9,
                                     dark_count_rate=0.0)
        assert background_counts(twice_rad, budget) == pytest.approx(2 * b0, rel=1e-12)
        assert background_counts(twice_fov, budget) == pytest.approx(2 * b0, rel=1e-12)
        double_ap = make_budget(rx_aperture=2 * budget.rx_aperture)
        assert background_counts(base, double_ap) == pytest.approx(4 * b0, rel=1e-12)
        twice_gate = NoiseEnvironment(spectral_radiance=1e-3, fov=1e-9,
                                      gate_time=2e-9, dark_count_rate=0.0)
        assert background_counts(twice_gate, budget) == pytest.approx(2 * b0, rel=1e-12)


class TestLinkTimeseries:
    def test_static_pair_constant(self):
        p = static_pass(20e3, 1e3, math.radians(40.0))
        records = link_timeseries(p, make_budget(), NoiseEnvironment())
        etas = {r.eta_sys for r in records}
        assert len(records) == len(p)
        assert len(etas) == 1

    def test_peak_transmittance_at_culmination(self):
        p = propagate_pass(535e3, 20e3)
        records = link_timeseries(p, make_budget(pointing_sigma=3.3e-6),
                                  NoiseEnvironment())
        etas = np.array([r.eta_sys for r in records])
        assert int(np.argmax(etas)) == len(records) // 2
        assert all(0.0 < e < 1.0 for e in etas)

    def test_culmination_loss_matches_hand_budget(self):
        # End-to-end oracle, assembled from scratch for the weak-PE
        # LEO-to-HAPS link at culmination (515 km).
        budget = make_budget(pointing_sigma=3.3e-6, eta_tx=0.8, eta_rx=0.8,
                             eta_det=0.5, eta_atm=1.0)
        p = propagate_pass(535e3, 20e3)
        records = link_timeseries(p, budget, NoiseEnvironment())
        got_db = -10.0 * math.log10(records[len(records) // 2].eta_sys)

        rng = 515e3
        w = 16.5e-6 * rng
        a = 0.175
        v = math.sqrt(math.pi / 2.0) * a / w
        a0 = math.erf(v) ** 2
        w_eq_sq = w * w * math.sqrt(math.pi) * math.erf(v) / (2 * v * math.exp(-v * v))
        gamma = w_eq_sq / (4.0 * (3.3e-6 * rng) ** 2)
        eta = a0 * gamma / (gamma + 1.0) * 0.8 * 0.8 * 0.5
        assert got_db == pytest.approx(-10.0 * math.log10(eta), abs=0.01)


class TestRangeArrays:
    RANGES = np.array([20e3, 515e3, 1.2e6, 2.5e6])

    def test_array_matches_per_range_calls(self):
        budget = make_budget(pointing_sigma=3.3e-6)
        loss = system_loss(budget, self.RANGES)
        assert loss.transmittance.shape == self.RANGES.shape
        for i, rng in enumerate(self.RANGES.tolist()):
            one = system_loss(budget, rng)
            assert np.ndim(one.transmittance) == 0
            assert one.transmittance == loss.transmittance[i]
            assert one.db == loss.db[i]

    def test_zero_jitter_array_returns_peak(self):
        budget = make_budget(pointing_sigma=0.0)
        eta = pointing_transmittance_expected(budget, self.RANGES)
        a = 0.5 * budget.rx_aperture
        v = math.sqrt(math.pi / 2.0) * a / beam_radius(budget, self.RANGES)
        np.testing.assert_allclose(eta, [math.erf(x) ** 2 for x in v], rtol=1e-12)

    def test_link_timeseries_matches_per_sample_loss(self):
        p = propagate_pass(535e3, 20e3, sample_interval_s=7.0)
        budget = make_budget(pointing_sigma=10e-6)
        records = link_timeseries(p, budget, NoiseEnvironment())
        assert [r.t_s for r in records] == p.t_s.tolist()
        assert [r.eta_sys for r in records] == [
            system_loss(budget, rng).transmittance for rng in p.range_m.tolist()]

    def test_vanishing_transmittance_rejected(self):
        # 4 sigma_d^2 overflows, so gamma and the transmittance are 0.
        with pytest.raises(ValueError, match="underflows"):
            system_loss(make_budget(pointing_sigma=1e200), self.RANGES)

    def test_nonpositive_range_in_array_rejected(self):
        with pytest.raises(ValueError):
            beam_radius(make_budget(), np.array([1e3, 0.0]))
