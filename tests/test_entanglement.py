"""Dual-downlink entanglement fidelity under background light."""

import math

import numpy as np
import pytest

from skyqlink.channel import LinkBudget, NoiseEnvironment
from skyqlink.entanglement import (
    DownlinkArm,
    DualDownlink,
    dual_link_fidelity,
    fidelity_sweep,
    signal_fraction,
)
from skyqlink.geometry import short_range_path

RANGE_M = short_range_path(math.radians(40.0), 20e3, 1e3)


def make_arm(divergence=33e-6, sigma=3.3e-6, radiance=1e-2, dark=200.0,
             fov=1.4e-10, filter_nm=0.5):
    budget = LinkBudget(wavelength=810e-9, divergence_full=divergence,
                        tx_aperture=0.09, rx_aperture=0.15,
                        pointing_sigma=sigma)
    env = NoiseEnvironment(spectral_radiance=radiance, fov=fov,
                           filter_bandwidth=filter_nm, gate_time=1e-9,
                           dark_count_rate=dark)
    return DownlinkArm(budget, RANGE_M, env)


def make_link(**kw):
    arm = make_arm(**kw)
    return DualDownlink(arm, arm, pair_rate=1e7, pair_mean=0.1)


class TestSignalFraction:
    def test_pure_signal(self):
        arm = make_arm(radiance=0.0, dark=0.0)
        q = signal_fraction(arm.budget, arm.range_m, arm.env, 0.1)
        assert q == 1.0

    def test_balanced_noise_halves(self):
        # Choose pair_mean so p_s equals p_b exactly.
        arm = make_arm()
        from skyqlink.channel import background_counts, system_loss
        p_b = background_counts(arm.env, arm.budget)
        eta = system_loss(arm.budget, arm.range_m).transmittance
        q = signal_fraction(arm.budget, arm.range_m, arm.env, p_b / eta)
        assert q == pytest.approx(0.5, rel=1e-12)

    def test_vanishing_signal_and_noise_is_zero(self):
        # p_s underflows to exactly 0 with no background either: q is
        # defined as 0 rather than NaN.
        arm = make_arm(radiance=0.0, dark=0.0)
        q = signal_fraction(arm.budget, arm.range_m, arm.env, 5e-324)
        assert q == 0.0

    def test_narrow_divergence_beats_wide(self):
        narrow = make_arm(divergence=33e-6)
        wide = make_arm(divergence=1e-3)
        q_n = signal_fraction(narrow.budget, narrow.range_m, narrow.env, 0.1)
        q_w = signal_fraction(wide.budget, wide.range_m, wide.env, 0.1)
        assert q_n > q_w


class TestDualLinkFidelity:
    def test_perfect_arms(self):
        link = make_link(radiance=0.0, dark=0.0)
        res = dual_link_fidelity(link)
        assert res.q_a == res.q_b == 1.0
        assert res.fidelity == 1.0

    def test_background_only_is_maximally_mixed(self):
        # Kill the signal by making the pair flux negligible next to noise.
        arm = make_arm()
        link = DualDownlink(arm, arm, pair_rate=1e7, pair_mean=1e-300)
        res = dual_link_fidelity(link)
        assert res.fidelity == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_formula_exact(self):
        link = make_link()
        res = dual_link_fidelity(link)
        assert res.fidelity == pytest.approx((1.0 + 3.0 * res.q_a * res.q_b) / 4.0,
                                             rel=1e-15)
        assert 0.25 <= res.fidelity <= 1.0

    def test_threshold_algebra(self):
        # F > 0.8 exactly when q_a q_b > 11/15.
        for w, expect_above in ((11.0 / 15.0 + 1e-6, True),
                                (11.0 / 15.0 - 1e-6, False)):
            f = (1.0 + 3.0 * w) / 4.0
            assert (f > 0.8) is expect_above

    def test_swap_invariance(self):
        a = make_arm(divergence=33e-6, sigma=3.3e-6)
        b = make_arm(divergence=1e-3, sigma=10e-6)
        f_ab = dual_link_fidelity(DualDownlink(a, b, pair_rate=1e7, pair_mean=0.1))
        f_ba = dual_link_fidelity(DualDownlink(b, a, pair_rate=1e7, pair_mean=0.1))
        assert f_ab.fidelity == pytest.approx(f_ba.fidelity, rel=1e-15)
        assert f_ab.coincidence_rate == pytest.approx(f_ba.coincidence_rate, rel=1e-15)

    def test_degrading_one_arm_never_helps(self):
        base = dual_link_fidelity(make_link(sigma=3.3e-6)).fidelity
        worse_jitter = dual_link_fidelity(make_link(sigma=20e-6)).fidelity
        worse_beam = dual_link_fidelity(make_link(divergence=1e-3)).fidelity
        assert worse_jitter <= base
        assert worse_beam <= base

    def test_coincidence_rate(self):
        from skyqlink.channel import system_loss
        link = make_link()
        eta = system_loss(link.link_a.budget, link.link_a.range_m).transmittance
        res = dual_link_fidelity(link)
        assert res.coincidence_rate == pytest.approx(1e7 * eta * eta, rel=1e-12)


class TestFidelitySweep:
    def test_zero_radiance_row_is_perfect_without_dark_counts(self):
        link = make_link(dark=0.0)
        rows = fidelity_sweep(link, [0.0, 1e-3])
        assert rows[0][1].fidelity == 1.0
        assert rows[1][1].fidelity < 1.0

    def test_symmetric_arms_share_q(self):
        rows = fidelity_sweep(make_link(), list(np.logspace(-7, -1, 10)))
        for _, res in rows:
            assert res.q_a == pytest.approx(res.q_b, rel=1e-15)

    def test_monotone_nonincreasing(self):
        rows = fidelity_sweep(make_link(), list(np.logspace(-7, -1, 25)))
        fids = [r.fidelity for _, r in rows]
        assert all(a >= b for a, b in zip(fids, fids[1:]))

    def test_narrow_divergence_higher_everywhere(self):
        grid = list(np.logspace(-7, -1, 25))
        narrow = [r.fidelity for _, r in fidelity_sweep(make_link(divergence=33e-6), grid)]
        wide = [r.fidelity for _, r in fidelity_sweep(make_link(divergence=1e-3), grid)]
        assert all(n > w for n, w in zip(narrow, wide))

    def test_matches_per_point_fidelity(self):
        link = make_link(sigma=10e-6)
        grid = list(np.logspace(-7, -1, 7))
        for h, res in fidelity_sweep(link, grid):
            one = dual_link_fidelity(link.with_radiance(h))
            assert (res.fidelity, res.q_a, res.q_b) == (one.fidelity, one.q_a, one.q_b)
            assert res.coincidence_rate == one.coincidence_rate

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fidelity_sweep(make_link(), [1e-3, 1e-3])
        with pytest.raises(ValueError):
            fidelity_sweep(make_link(), [-1e-3, 1e-2])
