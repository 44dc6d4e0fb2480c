"""Dual-downlink entanglement fidelity under background light."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyqlink.channel import LinkBudget, NoiseEnvironment, background_counts, system_loss
from skyqlink.entanglement import fidelity_sweep, signal_fraction, werner_fidelity
from skyqlink.geometry import short_range_path

RANGE_M = short_range_path(math.radians(40.0), 20e3, 1e3)


def make_arm(divergence=33e-6, sigma=3.3e-6, radiance=1e-2, dark=200.0,
             fov=1.4e-10, filter_nm=0.5):
    """(budget, env) of one receiver arm at RANGE_M."""
    budget = LinkBudget(wavelength=810e-9, divergence_full=divergence,
                        tx_aperture=0.09, rx_aperture=0.15,
                        pointing_sigma=sigma)
    env = NoiseEnvironment(spectral_radiance=radiance, fov=fov,
                           filter_bandwidth=filter_nm, gate_time=1e-9,
                           dark_count_rate=dark)
    return budget, env


def q_of(pair_mean=0.1, **kw):
    budget, env = make_arm(**kw)
    return signal_fraction(budget, RANGE_M, env, pair_mean)


def sweep(grid, pair_mean=0.1, **kw):
    budget, env = make_arm(**kw)
    return fidelity_sweep(budget, RANGE_M, env, pair_mean, grid)


class TestSignalFraction:
    def test_pure_signal(self):
        assert q_of(radiance=0.0, dark=0.0) == 1.0

    def test_balanced_noise_halves(self):
        # Choose pair_mean so p_s equals p_b exactly.
        budget, env = make_arm()
        p_b = background_counts(env, budget)
        eta = system_loss(budget, RANGE_M).transmittance
        q = signal_fraction(budget, RANGE_M, env, p_b / eta)
        assert q == pytest.approx(0.5, rel=1e-12)

    def test_vanishing_signal_and_noise_is_zero(self):
        # p_s underflows to exactly 0 with no background either: q is
        # defined as 0 rather than NaN.
        assert q_of(pair_mean=5e-324, radiance=0.0, dark=0.0) == 0.0

    def test_narrow_divergence_beats_wide(self):
        assert q_of(divergence=33e-6) > q_of(divergence=1e-3)


class TestDualLinkFidelity:
    def test_perfect_arms(self):
        q = q_of(radiance=0.0, dark=0.0)
        assert q == 1.0
        assert werner_fidelity(q, q) == 1.0

    def test_background_only_is_maximally_mixed(self):
        # Kill the signal by making the pair flux negligible next to noise.
        q = q_of(pair_mean=1e-300)
        assert werner_fidelity(q, q) == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_formula_exact(self):
        q_a, q_b = q_of(), q_of(sigma=10e-6)
        f = werner_fidelity(q_a, q_b)
        assert f == (1.0 + 3.0 * (q_a * q_b)) / 4.0
        assert f == pytest.approx((1.0 + 3.0 * q_a * q_b) / 4.0, rel=1e-15)
        assert 0.25 <= f <= 1.0
        # Bit for bit, in that order of operations, over arrays too.
        q = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(werner_fidelity(q, q[::-1]),
                              (1.0 + 3.0 * (q * q[::-1])) / 4.0)

    def test_threshold_algebra(self):
        # F > 0.8 exactly when q_a q_b > 11/15.
        for w, expect_above in ((11.0 / 15.0 + 1e-6, True),
                                (11.0 / 15.0 - 1e-6, False)):
            assert (werner_fidelity(w, 1.0) > 0.8) is expect_above

    def test_swap_invariance(self):
        q_a = q_of(divergence=33e-6, sigma=3.3e-6)
        q_b = q_of(divergence=1e-3, sigma=10e-6)
        assert q_a != q_b
        assert werner_fidelity(q_a, q_b) == werner_fidelity(q_b, q_a)

    def test_degrading_one_arm_never_helps(self):
        q = q_of(sigma=3.3e-6)
        base = werner_fidelity(q, q)
        assert werner_fidelity(q, q_of(sigma=20e-6)) <= base
        assert werner_fidelity(q, q_of(divergence=1e-3)) <= base


class TestFidelitySweep:
    def test_zero_radiance_row_is_perfect_without_dark_counts(self):
        _, fidelity = sweep([0.0, 1e-3], dark=0.0)
        assert fidelity[0] == 1.0
        assert fidelity[1] < 1.0

    def test_symmetric_arms_share_q(self):
        # One q serves both arms: the fidelity is that of (q, q).
        q, fidelity = sweep(np.logspace(-7, -1, 10))
        assert q.shape == fidelity.shape == (10,)
        assert np.array_equal(fidelity, werner_fidelity(q, q))

    def test_monotone_nonincreasing(self):
        _, fidelity = sweep(np.logspace(-7, -1, 25))
        assert np.all(np.diff(fidelity) <= 0)

    def test_narrow_divergence_higher_everywhere(self):
        grid = np.logspace(-7, -1, 25)
        _, narrow = sweep(grid, divergence=33e-6)
        _, wide = sweep(grid, divergence=1e-3)
        assert np.all(narrow > wide)

    def test_matches_per_point_fidelity(self):
        budget, env = make_arm(sigma=10e-6)
        grid = np.logspace(-7, -1, 7)
        q, fidelity = fidelity_sweep(budget, RANGE_M, env, 0.1, grid)
        for h, q_h, f_h in zip(grid, q, fidelity):
            one = signal_fraction(budget, RANGE_M, replace(env, spectral_radiance=h), 0.1)
            assert (q_h, f_h) == (one, werner_fidelity(one, one))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(radiances=st.lists(st.floats(0.0, 1.0), max_size=12, unique=True),
           pair_mean=st.one_of(st.just(5e-324), st.floats(1e-4, 1.0)),
           dark=st.sampled_from([0.0, 200.0]),
           sigma=st.floats(1e-6, 30e-6),
           divergence=st.floats(10e-6, 2e-3))
    def test_entries_are_per_point_bit_for_bit(self, radiances, pair_mean, dark,
                                               sigma, divergence):
        # 0 always leads the grid: with no dark counts, that row has no noise.
        grid = sorted({0.0, *radiances})
        budget, env = make_arm(divergence=divergence, sigma=sigma, dark=dark)
        q, fidelity = fidelity_sweep(budget, RANGE_M, env, pair_mean, grid)
        for h, q_h, f_h in zip(grid, q.tolist(), fidelity.tolist()):
            one = signal_fraction(budget, RANGE_M, replace(env, spectral_radiance=h),
                                  pair_mean)
            assert q_h == one
            assert f_h == werner_fidelity(one, one)
        if dark == 0.0:
            # eta_sys <= 0.8 * 0.8 * 0.5 here, so pair_mean = 5e-324 gives p_s = 0.
            assert q[0] == (0.0 if pair_mean == 5e-324 else 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep([1e-3, 1e-3])
        with pytest.raises(ValueError):
            sweep([-1e-3, 1e-2])

    def test_pair_mean_must_be_positive(self):
        for pair_mean in (0.0, -0.1):
            with pytest.raises(ValueError, match="pair_mean"):
                sweep([0.0, 1e-3], pair_mean=pair_mean)
