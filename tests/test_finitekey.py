"""Finite-key decoy-state BB84: tallies, bounds, SKL, optimisation."""

import contextlib
import io
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skyqlink import cli, finitekey
from skyqlink.channel import LinkSample, link_timeseries
from skyqlink.finitekey import (
    BASIS_X,
    BASIS_Z,
    AcquisitionWindow,
    BoundsBox,
    ProtocolParams,
    SecurityParams,
    TallyCounts,
    binary_entropy,
    decoy_bounds,
    optimize_params,
    optimize_windows,
    phase_error,
    simulate_tallies,
    skl,
)
from skyqlink.scenario import MHZ, parse_scenario, parse_scenario_text
from skyqlink.scenarios import bundled_path
from skyqlink.studies import (
    StudyNumericalError,
    build_bounds_box,
    build_budget,
    build_noise,
    build_pass,
    build_security,
    pointing_levels,
    run_skl,
)

SEC = SecurityParams()
PARAMS = ProtocolParams(mu1=0.8, mu2=0.1, mu3=0.0, p1=0.7, p2=0.2, p3=0.1, px=0.7)


def flat_link(eta, n_b=0.0, n_samples=201, dt=1.0):
    half = (n_samples - 1) // 2
    return [LinkSample((i - half) * dt, eta, n_b) for i in range(n_samples)]


def poisson_tallies(params, eta_ch, n_pulses_per_basis=1e12, p_noise=0.0,
                    e_int=0.0, n_max=60):
    """Oracle tallies from an explicit Poisson photon-number expansion.

    Yields Y_n = 1 - (1 - 2 p_noise)(1 - eta_ch)^n; error counts follow the
    same signal/noise split as the production model.
    """
    sent = np.zeros((2, 3))
    detected = np.zeros((2, 3))
    errored = np.zeros((2, 3))
    for k, (mu, p_k) in enumerate(zip(params.intensities, params.probabilities)):
        n_sent = n_pulses_per_basis * p_k
        q = 0.0
        err = 0.0
        for n in range(n_max):
            pois = math.exp(-mu) * mu**n / math.factorial(n)
            s_n = 1.0 - (1.0 - eta_ch) ** n
            y_n = 1.0 - (1.0 - 2.0 * p_noise) * (1.0 - s_n)
            q += pois * y_n
            err += pois * (s_n * e_int + (1.0 - s_n) * p_noise)
        for b in (BASIS_X, BASIS_Z):
            sent[b, k] = n_sent
            detected[b, k] = n_sent * q
            errored[b, k] = n_sent * err
    return TallyCounts(sent=sent, detected=detected, errored=errored)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_reference_point(self):
        # Direct high-precision evaluation of h(0.11).
        expected = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
        assert binary_entropy(0.11) == pytest.approx(expected, rel=1e-12)
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-9)


class TestSimulateTallies:
    def test_dead_channel_detects_nothing(self):
        tal = simulate_tallies(PARAMS, flat_link(0.0, 0.0), 100.0, SEC)
        assert np.all(tal.detected == 0)
        assert np.all(tal.errored == 0)

    def test_noiseless_intrinsicless_has_no_errors(self):
        sec = SecurityParams(e_intrinsic=0.0)
        tal = simulate_tallies(PARAMS, flat_link(1e-3, 0.0), 100.0, sec)
        assert np.all(tal.errored == 0)
        # Vacuum pulses cannot click without noise; the lit intensities do.
        assert np.all(tal.detected[:, :2] > 0)
        assert np.all(tal.detected[:, 2] == 0)

    def test_single_sample_closed_form(self):
        # mu = 0.5 at eta = 1e-3: D = 1 - exp(-5e-4), no noise.
        params = ProtocolParams(mu1=0.5, mu2=0.1, mu3=0.0, p1=0.7, p2=0.2,
                                p3=0.1, px=0.7, source_rate=1e6)
        link = [LinkSample(-1.0, 1e-3, 0.0), LinkSample(0.0, 1e-3, 0.0),
                LinkSample(1.0, 1e-3, 0.0)]
        tal = simulate_tallies(params, link, 1.0, SEC)
        d = 1.0 - math.exp(-5e-4)
        expected = 1e6 * 3 * 0.49 * 0.7 * d
        assert tal.detected[BASIS_X, 0] == pytest.approx(expected, rel=1e-12)
        assert d == pytest.approx(4.99875e-4, rel=1e-4)

    def test_deterministic(self):
        link = flat_link(2e-4, 3e-7)
        t1 = simulate_tallies(PARAMS, link, 50.0, SEC)
        t2 = simulate_tallies(PARAMS, link, 50.0, SEC)
        assert np.array_equal(t1.detected, t2.detected)
        assert np.array_equal(t1.errored, t2.errored)
        assert np.array_equal(t1.sent, t2.sent)

    def test_window_beyond_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            simulate_tallies(PARAMS, flat_link(1e-3, 0.0, n_samples=21), 100.0, SEC)

    def test_tally_invariants(self):
        tal = simulate_tallies(PARAMS, flat_link(5e-4, 1e-6), 100.0, SEC)
        assert np.all(tal.errored <= tal.detected)
        assert np.all(tal.detected <= tal.sent)


class TestDecoyBounds:
    def test_asymptotic_recovers_poisson_single_yield(self):
        # Infinite-key limit on a noiseless channel: the single-photon
        # bound must sit within 1% below the true Poisson-expansion yield.
        # Bound slack grows like mu1*mu2/2, so probe the small-intensity
        # regime where 1% tightness is expected.
        params = ProtocolParams(mu1=0.3, mu2=0.04, mu3=0.0,
                                p1=0.5, p2=0.3, p3=0.2, px=0.7)
        eta_ch = 1e-3
        tal = poisson_tallies(params, eta_ch)
        bounds = decoy_bounds(tal, params, SEC, BASIS_X, hoeffding=False)
        n_basis = 1e12
        true_s1 = n_basis * params.tau(1) * eta_ch
        assert bounds.feasible
        assert bounds.s1 <= true_s1 * (1.0 + 1e-9)
        assert bounds.s1 == pytest.approx(true_s1, rel=1e-2)

    def test_asymptotic_vacuum_bound(self):
        tal = poisson_tallies(PARAMS, 1e-3, p_noise=1e-6)
        bounds = decoy_bounds(tal, PARAMS, SEC, BASIS_X, hoeffding=False)
        true_s0 = 1e12 * PARAMS.tau(0) * 2e-6  # vacuum clicks: 2 p_noise
        assert bounds.s0 == pytest.approx(true_s0, rel=1e-2)

    def test_hoeffding_width_scales_as_sqrt(self):
        # Scaling all counts x4 at fixed rates halves the relative width
        # of the finite-sample correction.
        def rel_gap(scale):
            tal = poisson_tallies(PARAMS, 1e-3, n_pulses_per_basis=1e10 * scale)
            finite = decoy_bounds(tal, PARAMS, SEC, BASIS_X).s1
            asym = decoy_bounds(tal, PARAMS, SEC, BASIS_X, hoeffding=False).s1
            return (asym - finite) / asym

        ratio = rel_gap(1) / rel_gap(4)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_zero_detections_infeasible(self):
        tal = simulate_tallies(PARAMS, flat_link(0.0, 0.0), 100.0, SEC)
        bounds = decoy_bounds(tal, PARAMS, SEC, BASIS_X)
        assert not bounds.feasible


class TestPhaseError:
    def test_vanishes_with_huge_clean_samples(self):
        assert phase_error(1e15, 0.0, 1e15, SEC) < 1e-6

    def test_capped_at_half(self):
        assert phase_error(1e6, 5e5, 1e6, SEC) == 0.5

    def test_gamma_reference_value(self):
        # Direct evaluation oracle at c = d = 1e6, b = 0.02, a = 1e-9.
        a, b, c, d = 1e-9, 0.02, 1e6, 1e6
        spread = (c + d) * (1.0 - b) * b
        expected_gamma = math.sqrt(
            spread / (c * d * math.log(2.0))
            * math.log2((c + d) / (c * d * (1.0 - b) * b) * (21.0 / a) ** 2))
        got = phase_error(c, b * c, d, SecurityParams(eps_sec=a))
        assert got == pytest.approx(b + expected_gamma, rel=1e-9)

    def test_security_budget_whose_square_overflows_is_rejected(self):
        # (21 / 1e-153)**2 overflows: the phase-error bound would read inf
        # and cap phi at 1/2, although gamma itself is finite.
        assert phase_error(1e6, 2e4, 1e6, SecurityParams(eps_sec=1e-150)) < 0.5
        with pytest.raises(ValueError, match="eps_sec must be >= 1e-150"):
            SecurityParams(eps_sec=1e-153)

    def test_domain(self):
        with pytest.raises(ValueError):
            phase_error(0.0, 0.0, 1e6, SEC)
        with pytest.raises(ValueError):
            phase_error(1e6, -1.0, 1e6, SEC)
        with pytest.raises(ValueError):
            phase_error(1e6, 2e6, 1e6, SEC)


class TestSKL:
    def test_zero_transmittance_gives_zero(self):
        tal = simulate_tallies(PARAMS, flat_link(0.0, 0.0), 100.0, SEC)
        res = skl(tal, PARAMS, SEC)
        assert res.skl == 0
        assert not res.feasible

    def test_skl_bounded_by_sifted_key(self):
        for eta in (1e-5, 1e-4, 1e-3):
            tal = simulate_tallies(PARAMS, flat_link(eta, 1e-7), 100.0, SEC)
            res = skl(tal, PARAMS, SEC)
            assert res.skl <= tal.n_basis(BASIS_X)

    def test_high_qber_kills_key(self):
        # Half the detections errored: QBER = 0.5.
        sent = np.full((2, 3), 1e9)
        detected = np.full((2, 3), 1e6)
        errored = detected * 0.5
        tal = TallyCounts(sent=sent, detected=detected, errored=errored)
        res = skl(tal, PARAMS, SEC)
        assert res.qber_key_basis == pytest.approx(0.5)
        assert res.skl == 0

    def test_monotone_in_window(self):
        link = flat_link(2e-4, 1e-7, n_samples=401)
        values = []
        for half in (25.0, 50.0, 100.0, 200.0):
            tal = simulate_tallies(PARAMS, link, half, SEC)
            values.append(skl(tal, PARAMS, SEC).skl)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_monotone_in_pointing_loss(self):
        # More jitter -> lower transmittance -> no larger SKL at fixed params.
        values = []
        for eta in (4e-4, 2e-4, 1e-4):
            tal = simulate_tallies(PARAMS, flat_link(eta, 1e-7), 100.0, SEC)
            values.append(skl(tal, PARAMS, SEC).skl)
        assert all(a >= b for a, b in zip(values, values[1:]))


@st.composite
def schema_boxes(draw):
    """A bounds box and mu3 that the scenario schema accepts, on a lattice of
    sixteenths.  There the middle grid point is exactly the box centre, so no
    validity boundary passes within one ulp of the centre."""
    lines = ["[protocol]", f"mu3 = {draw(st.integers(0, 32)) / 16!r}", "[optimizer]"]
    for name, top in (("mu1", 64), ("mu2", 64), ("px", 15), ("p1", 15), ("p2", 15)):
        lo, hi = sorted(draw(st.lists(st.integers(1, top), min_size=2, max_size=2,
                                      unique=True)))
        lines += [f"{name}_min = {lo / 16!r}", f"{name}_max = {hi / 16!r}"]
    scenario = parse_scenario_text("\n".join(lines))
    return build_bounds_box(scenario), scenario.get("protocol", "mu3")


class TestOptimizeParams:
    @pytest.mark.parametrize("name, bounds", [("mu2", (0.35, 0.05)), ("p1", (0.5, 0.5)),
                                              ("px", (math.nan, 0.9))])
    def test_bounds_box_rejects_a_range_that_does_not_increase(self, name, bounds):
        with pytest.raises(ValueError, match=f"{name} range must increase"):
            BoundsBox(**{name: bounds})

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=schema_boxes())
    def test_box_without_a_valid_grid_point_raises(self, case):
        # The search no longer tries the box centre when no grid point is
        # valid: the centre is then invalid too.  A dead link scores every
        # valid vector 0, so validity is all the kernel reports here.
        box, mu3 = case
        link = flat_link(0.0, 0.0)
        window = AcquisitionWindow(link, 50.0)
        grid = np.stack(np.meshgrid(*[np.linspace(lo, hi, 5) for lo, hi in box.as_list()],
                                    indexing="ij"), axis=-1).reshape(-1, 5)
        if (skl_batch(grid, window, SEC, mu3) >= 0).any():
            assert optimize_params(link, 50.0, SEC, box, mu3=mu3)[1].skl == 0
            return
        centre = np.array(box.as_list()).mean(axis=1)
        assert skl_batch(centre, window, SEC, mu3)[0] == -1
        with pytest.raises(ValueError, match="bounds box contains no valid "
                                             "protocol-parameter combination"):
            optimize_params(link, 50.0, SEC, box, mu3=mu3)

    def test_degenerate_link_infeasible(self):
        params, res = optimize_params(flat_link(0.0, 0.0), 50.0, SEC)
        assert res.skl == 0
        assert not res.feasible

    def test_beats_seeding_grid(self):
        link = flat_link(2e-4, 1e-7)
        box = BoundsBox()
        _, best = optimize_params(link, 100.0, SEC, box)
        grid_best = 0
        for mu1 in np.linspace(*box.mu1, 5):
            for mu2 in np.linspace(*box.mu2, 5):
                for px in np.linspace(*box.px, 5):
                    for p1 in np.linspace(*box.p1, 5):
                        for p2 in np.linspace(*box.p2, 5):
                            p3 = 1.0 - p1 - p2
                            if p3 <= 0 or mu1 <= mu2:
                                continue
                            params = ProtocolParams(
                                mu1=float(mu1), mu2=float(mu2), mu3=0.0,
                                p1=float(p1), p2=float(p2), p3=float(p3),
                                px=float(px))
                            tal = simulate_tallies(params, link, 100.0, SEC)
                            grid_best = max(grid_best, skl(tal, params, SEC).skl)
        assert best.skl >= grid_best

    def test_beats_hand_picked_parameters(self):
        link = flat_link(2e-4, 1e-7)
        hand = ProtocolParams(mu1=0.8, mu2=0.1, mu3=0.0, p1=0.7, p2=0.2,
                              p3=0.1, px=0.7)
        tal = simulate_tallies(hand, link, 100.0, SEC)
        hand_skl = skl(tal, hand, SEC).skl
        _, best = optimize_params(link, 100.0, SEC)
        assert best.skl >= hand_skl

    def test_deterministic(self):
        link = flat_link(3e-4, 1e-7, n_samples=101)
        p1, r1 = optimize_params(link, 50.0, SEC)
        p2, r2 = optimize_params(link, 50.0, SEC)
        assert (p1.mu1, p1.mu2, p1.px, p1.p1, p1.p2) == \
            (p2.mu1, p2.mu2, p2.px, p2.p1, p2.p2)
        assert r1.skl == r2.skl


class TestProtocolParams:
    def test_intensity_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProtocolParams(mu1=0.1, mu2=0.5, mu3=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(mu1=0.5, mu2=0.3, mu3=0.3)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(mu1=0.5, mu2=0.1, p1=0.5, p2=0.5, p3=0.5)
        with pytest.raises(ValueError):
            ProtocolParams(mu1=0.5, mu2=0.1, px=1.0)

    def test_tau_is_poisson_mixture(self):
        p = ProtocolParams(mu1=0.5, mu2=0.1, mu3=0.0, p1=0.5, p2=0.3, p3=0.2)
        expected = 0.5 * math.exp(-0.5) * 0.5 + 0.3 * math.exp(-0.1) * 0.1
        assert p.tau(1) == pytest.approx(expected, rel=1e-12)


def scalar_bits(vec, link, window_half, security, mu3=0.0):
    """Reference: -1 where ProtocolParams rejects the vector, else scalar SKL."""
    mu1, mu2, px, p1, p2 = (float(v) for v in vec)
    try:
        params = ProtocolParams(mu1=mu1, mu2=mu2, mu3=mu3, p1=p1, p2=p2,
                                p3=1.0 - p1 - p2, px=px)
    except ValueError:
        return -1
    return skl(simulate_tallies(params, link, window_half, security),
               params, security).skl


def skl_batch(vectors, window, security, mu3=0.0):
    """The kernel over one window, each ``(mu1, mu2, px, p1, p2)`` row its
    own table entry."""
    vectors = np.asarray(vectors, dtype=float).reshape(-1, 5)
    index = np.tile(np.arange(len(vectors)), (6, 1))
    index[5] = 0
    return finitekey._skl_rows(vectors.T, index, [window], security, mu3, 2e8)


# Vectors inside the default BoundsBox (mostly valid), plus values at and
# beyond its edges so that rows with p3 <= 0, mu1 <= mu2, mu2 <= mu3 and
# px in {0, 1} all occur.
_edge = st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.35, 0.5, 0.8, 0.9, 1.0])
_unit = st.one_of(_edge, st.floats(min_value=0.0, max_value=1.0))
_vector = st.one_of(
    st.tuples(*(st.floats(min_value=lo, max_value=hi)
                for lo, hi in BoundsBox().as_list())),
    st.tuples(st.one_of(_edge, st.floats(min_value=0.0, max_value=1.2)),
              _unit, _unit, _unit, _unit))


@st.composite
def uniform_links(draw):
    """Uniform-time link centred on t = 0 and a window inside its support."""
    n_samples = draw(st.integers(min_value=3, max_value=60))
    step = draw(st.floats(min_value=0.1, max_value=5.0))
    eta_level = draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]))
    noise_level = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3]))
    factor = st.floats(min_value=0.0, max_value=1.0)
    half = (n_samples - 1) // 2
    link = [LinkSample((i - half) * step, eta_level * draw(factor),
                       noise_level * draw(factor))
            for i in range(n_samples)]
    fraction = draw(st.floats(min_value=0.01, max_value=0.98))
    return link, fraction * (half + 0.5) * step


@st.composite
def keyed_links(draw):
    """A flat link bright enough that in-box vectors often yield key, a dead
    one, or one whose noise clicks make the tallies inconsistent, with a
    window inside its support."""
    n_samples = draw(st.integers(min_value=20, max_value=100)) * 2 + 1
    dt = draw(st.sampled_from([1.0, 0.5, 2.0]))
    link = flat_link(draw(st.sampled_from([3e-4, 1e-3, 1e-4, 0.0])),
                     draw(st.sampled_from([1e-7, 0.0, 2.0])), n_samples, dt)
    return link, draw(st.floats(min_value=0.5, max_value=1.0)) * (n_samples // 2) * dt


@st.composite
def sum_windows(draw):
    """A window of 1 to 300 samples, cut from a 1 s link whose two end
    samples fall outside it."""
    kept = draw(st.integers(min_value=1, max_value=300))
    unit = st.one_of(st.sampled_from([0.0, 1e-6, 0.5, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0))
    eta = draw(hnp.arrays(float, kept + 2, elements=unit))
    n_b = draw(hnp.arrays(float, kept + 2, elements=unit))
    link = [LinkSample(i - (kept + 1) / 2, e, b)
            for i, (e, b) in enumerate(zip(eta.tolist(), n_b.tolist()))]
    window = AcquisitionWindow(link, (kept - 1) / 2 + 0.25)
    assert len(window.eta) == kept
    return window


class TestWindowSums:
    @given(sum_windows(),
           st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.2, 5.0]),
                              st.floats(min_value=0.0, max_value=50.0)),
                    min_size=1, max_size=8),
           st.sampled_from([0.0, 0.01, 0.3]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_rows_equal_the_per_intensity_sums(self, window, mu, e_intrinsic):
        # The kernel's bits rest on a 2-D exp and row reduction giving the
        # same doubles as one 1-D expression per intensity.
        expected = []
        for m in mu:
            no_signal = np.exp(-window.eta * m)
            signal = 1.0 - no_signal
            click = 1.0 - (1.0 - 2.0 * window.p_noise) * no_signal
            err = signal * e_intrinsic + no_signal * window.p_noise
            expected.append((float(np.add.reduce(click)), float(np.add.reduce(err))))
        sums = np.stack(window.sums(np.array(mu), e_intrinsic), axis=-1)
        assert sums.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()

    @given(uniform_links(), st.lists(st.floats(min_value=0.0, max_value=5.0),
                                     min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_array_link_matches_the_list(self, link_window, mu):
        # run_skl cuts each level's windows from one (n, 3) array of its samples.
        link, window_half = link_window
        from_list = AcquisitionWindow(link, window_half)
        from_array = AcquisitionWindow(np.array(link), window_half)
        assert from_array.dt.hex() == from_list.dt.hex()
        for got, want in ((from_array.eta, from_list.eta),
                          (from_array.p_noise, from_list.p_noise),
                          *zip(from_array.sums(np.array(mu), 0.01),
                               from_list.sums(np.array(mu), 0.01))):
            assert got.tobytes() == want.tobytes()


class TestSklBatch:
    @given(st.lists(_vector, min_size=1, max_size=30), uniform_links(),
           st.sampled_from([0.0, 0.02]),
           st.sampled_from([SEC, SecurityParams(eps_sec=1e-6, eps_cor=1e-10,
                                                f_ec=1.1, e_intrinsic=0.03)]))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_path(self, vectors, link_window, mu3, security):
        link, window_half = link_window
        window = AcquisitionWindow(link, window_half)
        try:
            expected = [scalar_bits(v, link, window_half, security, mu3)
                        for v in vectors]
        except (ValueError, ArithmeticError):
            # Both paths refuse a batch with inconsistent tallies or a
            # non-finite key length.
            with pytest.raises((ValueError, ArithmeticError)):
                skl_batch(np.array(vectors), window, security, mu3=mu3)
            return
        bits = skl_batch(np.array(vectors), window, security, mu3=mu3)
        assert bits.tolist() == expected

    def test_full_grid_on_fig2_window(self):
        # Criterion 5's window: fig2 recipe, weak PE, dt = 50 s.
        scenario = parse_scenario(bundled_path("fig2_leo_haps"))
        security = build_security(scenario)
        _, sigma = pointing_levels(scenario)[0]
        link = link_timeseries(build_pass(scenario), build_budget(scenario, sigma),
                               build_noise(scenario))
        axes = [np.linspace(lo, hi, 5) for lo, hi in BoundsBox().as_list()]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 5)
        bits = skl_batch(grid, AcquisitionWindow(link, 50.0), security)
        assert bits.tolist() == [scalar_bits(v, link, 50.0, security) for v in grid]
        assert (bits == -1).any() and (bits > 0).any()

    def test_inconsistent_tallies_raise(self):
        # Noise clicks above 1/2 per gate push detections past pulses sent.
        link = flat_link(1e-3, n_b=2.0)
        with pytest.raises(ValueError, match="tallies must satisfy"):
            simulate_tallies(PARAMS, link, 50.0, SEC)
        with pytest.raises(ValueError, match="tallies must satisfy"):
            skl_batch(np.array([[0.8, 0.1, 0.7, 0.7, 0.2]]),
                      AcquisitionWindow(link, 50.0), SEC)

    def test_all_invalid_batch(self):
        bits = skl_batch(np.array([[0.1, 0.5, 0.7, 0.6, 0.2],
                                   [0.8, 0.1, 0.7, 0.6, 0.5]]),
                         AcquisitionWindow(flat_link(1e-3), 50.0), SEC)
        assert bits.tolist() == [-1, -1]


# Doubles whose square by glibc 2.36's pow (x**2) differs from x * x: the
# first px and both intensities in x itself, the second px in 1 - x.
_PX_POW_DIFFERS = [float.fromhex("0x1.0eb3c320f3baap-1"),
                   float.fromhex("0x1.2bcadbe4779dcp-1")]
_MU2_POW_DIFFERS = float.fromhex("0x1.6692a50e6714ep-3")
_MU1_POW_DIFFERS = float.fromhex("0x1.9eeab4099c992p-1")


class TestSquaresAreProducts:
    @pytest.mark.parametrize("px", _PX_POW_DIFFERS)
    def test_sifted_pulses_square_px_as_a_product(self, px):
        params = ProtocolParams(mu1=0.8, mu2=0.1, p1=0.6, p2=0.25, p3=0.15, px=px)
        link = flat_link(2e-4, 1e-7)
        sent = simulate_tallies(params, link, 100.0, SEC).sent
        window = AcquisitionWindow(link, 100.0)
        pulses, n = params.source_rate * window.dt, len(window.eta)
        assert sent[BASIS_X].tolist() == [pulses * (px * px) * p_k * n
                                          for p_k in params.probabilities]
        assert sent[BASIS_Z].tolist() == [pulses * ((1.0 - px) * (1.0 - px)) * p_k * n
                                          for p_k in params.probabilities]

    def test_kernel_matches_the_scalar_path(self):
        link = flat_link(2e-4, 1e-7)
        vectors = [(mu1, mu2, px, 0.6, 0.25) for mu1 in (_MU1_POW_DIFFERS, 0.8)
                   for mu2 in (_MU2_POW_DIFFERS, 0.1) for px in _PX_POW_DIFFERS]
        bits = skl_batch(vectors, AcquisitionWindow(link, 100.0), SEC)
        assert bits.tolist() == [scalar_bits(v, link, 100.0, SEC) for v in vectors]
        assert (bits > 0).all()


@st.composite
def indexed_batches(draw):
    """Five per-axis value tables and a (5, N) index into them.  mu1's and
    mu2's tables draw from one small pool, so values repeat within each
    table and across the two, and many rows are invalid."""
    mu_pool = draw(st.lists(st.one_of(_edge, st.floats(min_value=0.0, max_value=1.2)),
                            min_size=1, max_size=4))
    tables = [np.array(draw(st.lists(st.sampled_from(mu_pool), min_size=1, max_size=5)))
              for _ in range(2)]
    tables += [np.array(draw(st.lists(_unit, min_size=1, max_size=5))) for _ in range(3)]
    n_rows = draw(st.integers(min_value=1, max_value=30))
    index = np.stack([draw(hnp.arrays(np.intp, n_rows,
                                      elements=st.integers(0, len(table) - 1)))
                      for table in tables])
    return tables, index


def table_rows(tables, index):
    return np.stack([table[rows] for table, rows in zip(tables, index)], axis=1)


def one_window_rows(tables, index, window, mu3):
    """The kernel over one window, for a (5, N) index into five tables."""
    index = np.concatenate([index, np.zeros_like(index[:1])])
    return finitekey._skl_rows(tables, index, [window], SEC, mu3, 2e8)


class TestIndexedKernel:
    @given(indexed_batches(), uniform_links(), st.sampled_from([0.0, 0.02]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_skl_batch_and_the_scalar_path(self, batch, link_window, mu3):
        tables, index = batch
        link, window_half = link_window
        window = AcquisitionWindow(link, window_half)
        vectors = table_rows(tables, index)
        try:
            expected = [scalar_bits(v, link, window_half, SEC, mu3) for v in vectors]
        except (ValueError, ArithmeticError):
            with pytest.raises((ValueError, ArithmeticError)):
                one_window_rows(tables, index, window, mu3)
            return
        bits = one_window_rows(tables, index, window, mu3)
        assert bits.tolist() == expected
        assert skl_batch(vectors, window, SEC, mu3=mu3).tolist() == expected

    @given(st.lists(_vector, min_size=1, max_size=40), st.sampled_from([3, 2, 4, 1]),
           st.data(), st.sampled_from([0.0, 0.02]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_stacked_windows_match_the_per_window_calls(self, vectors, n_windows, data,
                                                         mu3):
        # Windows differ in sample count, dt and eta (a dead link among
        # them); each row of a stacked call scores over its own window
        # exactly as in a call over that window alone.
        tables, index = zip(*(np.unique(column, return_inverse=True)
                              for column in np.array(vectors).T))
        index = np.stack(index)
        links = data.draw(st.lists(st.one_of(keyed_links(), uniform_links()),
                                   min_size=n_windows, max_size=n_windows))
        windows = [AcquisitionWindow(link, half) for link, half in links]
        window_rows = data.draw(hnp.arrays(np.intp, index.shape[1],
                                           elements=st.integers(0, len(windows) - 1)))
        stacked = np.concatenate([index, window_rows[None]])
        expected = np.zeros(index.shape[1], dtype=np.int64)
        try:
            for w, window in enumerate(windows):
                rows = window_rows == w
                expected[rows] = one_window_rows(tables, index[:, rows], window, mu3)
        except (ValueError, ArithmeticError):
            with pytest.raises((ValueError, ArithmeticError)):
                finitekey._skl_rows(tables, stacked, windows, SEC, mu3, 2e8)
            return
        bits = finitekey._skl_rows(tables, stacked, windows, SEC, mu3, 2e8)
        assert bits.dtype == np.int64
        assert bits.tolist() == expected.tolist()

    def test_entries_read_only_by_invalid_rows_are_not_evaluated(self):
        # exp(800) and 1e200**2 overflow a Python float, but mu2 = 800 is
        # above every mu1 and px = 1e200 is outside (0, 1): only invalid
        # rows read them, so they score -1 as the scalar path rejects them.
        tables = [np.array([0.5, 0.8]), np.array([0.1, 800.0]), np.array([0.7, 1e200]),
                  np.array([0.6]), np.array([0.2])]
        index = np.array([[0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0] * 4, [0] * 4])
        link = flat_link(1e-3, 1e-7)
        bits = one_window_rows(tables, index, AcquisitionWindow(link, 50.0), 0.0)
        assert bits.tolist() == [scalar_bits(v, link, 50.0, SEC)
                                 for v in table_rows(tables, index)]
        assert bits.tolist()[2:] == [-1, -1] and (bits[:2] >= 0).all()

    def test_inconsistent_tallies_raise(self):
        window = AcquisitionWindow(flat_link(1e-3, n_b=2.0), 50.0)
        tables = [np.array([v, v]) for v in (0.8, 0.1, 0.7, 0.7, 0.2)]
        with pytest.raises(ValueError, match="tallies must satisfy"):
            one_window_rows(tables, np.ones((5, 3), dtype=np.intp), window, 0.0)
        # Stacked behind a clean window with ten times its samples, whose
        # sample count would cover the noisy window's clicks.
        clean = AcquisitionWindow(flat_link(1e-3, n_samples=211), 105.0)
        noisy = AcquisitionWindow(flat_link(1e-3, n_b=2.0, n_samples=21), 10.0)
        index = np.concatenate([np.ones((5, 2), dtype=np.intp), [[0, 1]]])
        assert one_window_rows(tables, index[:5, :1], clean, 0.0)[0] > 0
        with pytest.raises(ValueError, match="tallies must satisfy"):
            finitekey._skl_rows(tables, index, [clean, noisy], SEC, 0.0, 2e8)


def fig2_weak_window():
    """Criterion 5's window (fig2 recipe, weak PE, dt = 50 s) as a search case."""
    scenario = parse_scenario(bundled_path("fig2_leo_haps"))
    _, sigma = pointing_levels(scenario)[0]
    link = link_timeseries(build_pass(scenario), build_budget(scenario, sigma),
                           build_noise(scenario))
    return link, 50.0, build_security(scenario), build_bounds_box(scenario)


SEARCH_CASES = {
    "fig2_weak_dt50": fig2_weak_window,
    "flat_link": lambda: (flat_link(2e-4, 1e-7), 100.0, SEC, BoundsBox()),
    "flat_link_dead": lambda: (flat_link(0.0, 0.0), 50.0, SEC, BoundsBox()),
}


@pytest.fixture(params=sorted(SEARCH_CASES))
def searched(request, monkeypatch):
    """One optimize_params run, with its scalar skl, lexsort and unique calls
    counted."""
    link, window_half, security, box = SEARCH_CASES[request.param]()
    calls, sorts, uniques = [], [], []

    def counted(counter, function):
        def wrapper(*args, **kwargs):
            counter.append(args)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(finitekey, "skl", counted(calls, skl))
    monkeypatch.setattr(np, "lexsort", counted(sorts, np.lexsort))
    monkeypatch.setattr(np, "unique", counted(uniques, np.unique))
    params, result = optimize_params(link, window_half, security, box)
    return SimpleNamespace(link=link, window_half=window_half, security=security,
                           box=box, params=params, result=result,
                           skl_calls=len(calls), lexsort_calls=len(sorts),
                           unique_calls=len(uniques))


def python_ranked(vectors, scores):
    """Reference order of the search: higher score first, then smaller vector."""
    return sorted(range(len(vectors)),
                  key=lambda i: (-int(scores[i]), tuple(vectors[i].tolist())))


@st.composite
def ascending_grids(draw):
    """A seeding grid built as optimize_params builds it, from random
    increasing axes of 1 to 4 points, with small-integer scores so that
    ties are common."""
    axes = []
    for _ in range(5):
        lo = draw(st.floats(-10.0, 10.0))
        width = draw(st.floats(1e-6, 10.0))
        axes.append(np.linspace(lo, lo + width, draw(st.integers(1, 4))))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 5)
    scores = draw(hnp.arrays(np.int64, len(grid), elements=st.integers(-1, 2)))
    return grid, scores


class TestGridRanking:
    @given(ascending_grids())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_stable_argsort_matches_python_order(self, case):
        grid, scores = case
        top = np.argsort(-scores, kind="stable")[:3]
        assert top.tolist() == python_ranked(grid, scores)[:3]


@st.composite
def compass_incumbents(draw):
    """Incumbents of up to three windows, on or near the default box's
    edges, with small-integer scores and steps of very different sizes, so
    that clipping returns points to their incumbent and ties are common."""
    lower, upper = np.array(BoundsBox().as_list()).T
    width = upper - lower
    at = st.sampled_from([0.0, 1e-12, 1 / 16, 0.5, 15 / 16, 1.0 - 1e-12, 1.0])
    reach = st.sampled_from([2.0, 1.0 / 8, 1.0 / 32, 2.0**-14, 1e-13])
    n = draw(st.integers(min_value=1, max_value=6))
    best = [lower + width * np.array(draw(st.tuples(*[at] * 5))) for _ in range(n)]
    step = [width * np.array(draw(st.tuples(*[reach] * 5))) for _ in range(n)]
    scores = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    window_rows = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return (np.clip(best, lower, upper), np.array(scores, dtype=np.int64), np.array(step),
            np.array(window_rows), draw(st.integers(min_value=0, max_value=2**32 - 1)))


def full_compass(best, step):
    """Every incumbent's ten clipped compass points, in the level's column
    order, including those that clipping returns to the incumbent."""
    lower, upper = np.array(BoundsBox().as_list()).T
    values = np.stack([best, np.maximum(best - step, lower), np.minimum(best + step, upper)],
                      axis=-1)
    return values[:, finitekey._AXES, finitekey._COMPASS].transpose(0, 2, 1)


class TestStencilPick:
    @given(compass_incumbents())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_argmax_picks_the_ranked_vector(self, case):
        # The compass columns -e0..-e4, +e4..+e0 that clipping does not
        # return to the incumbent increase in vector order, and the others
        # read -2, so a compass's first maximum is its smallest best vector.
        best, _, step, _, seed = case
        points = full_compass(best, step)
        moved = (points != best[:, None, :]).any(axis=-1)
        scores = np.random.default_rng(seed).integers(-1, 3, size=moved.shape)
        scores[~moved] = -2
        live = moved.any(axis=1)
        argmax = points[np.arange(len(points)), scores.argmax(axis=1)][live]
        ranked = [p[m][python_ranked(p[m], s[m])[0]]
                  for p, s, m in zip(points[live], scores[live], moved[live])]
        assert argmax.tolist() == [v.tolist() for v in ranked]


class TestStencilLevel:
    @given(compass_incumbents())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_deduplicated_level_matches_the_full_stencil(self, case):
        # Skipping the points that clipping returns to the incumbent, the
        # level moves, scores and halves steps as the ranked full compass,
        # where such a point scores as the incumbent and so never wins.
        best, _, step, window_rows, seed = case
        lower, upper = np.array(BoundsBox().as_list()).T
        points = full_compass(best, step)
        keys = sorted({(w, tuple(v)) for w, b, p in zip(window_rows.tolist(), best.tolist(),
                                                        points.tolist())
                       for v in [b] + p})
        rng = np.random.default_rng(seed)
        score_of = {key: int(rng.integers(-1, 3)) for key in keys}
        scores = np.array([score_of[w, tuple(b)] for w, b in
                           zip(window_rows.tolist(), best.tolist())], dtype=np.int64)

        def table_kernel(tables, index, *_):
            rows = zip(index[5].tolist(), map(tuple, table_rows(tables, index[:5]).tolist()))
            return np.array([score_of[key] for key in rows], dtype=np.int64)

        expected = [best.copy(), scores.copy(), step.copy()]
        for i, (w, p) in enumerate(zip(window_rows.tolist(), points)):
            full_scores = [score_of[w, tuple(v)] for v in p.tolist()]
            top = python_ranked(p, full_scores)[0]
            if full_scores[top] > scores[i]:
                expected[0][i], expected[1][i] = p[top], full_scores[top]
            else:
                expected[2][i] /= 2.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finitekey, "_skl_rows", table_kernel)
            finitekey._compass_level(best, scores, step, window_rows, lower, upper, ())
        assert [a.tolist() for a in (best, scores, step)] == [a.tolist() for a in expected]


class TestCompassLevel:
    @given(compass_incumbents())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_moves_to_the_ranked_best_strictly_better_point_or_halves(self, case):
        best, scores, step, window_rows, seed = case
        lower, upper = np.array(BoundsBox().as_list()).T
        # Each incumbent's compass points other than itself, in vector order,
        # with one random score per (window, point).
        points = [sorted({tuple(np.clip(b + sign * s * np.eye(5)[axis], lower, upper))
                          for axis in range(5) for sign in (-1.0, 1.0)} - {tuple(b)})
                  for b, s in zip(best.tolist(), step)]
        wanted = [(w, v) for w, group in zip(window_rows.tolist(), points) for v in group]
        rng = np.random.default_rng(seed)
        score_of = {key: int(rng.integers(-1, 3)) for key in sorted(set(wanted))}
        scored = []

        def table_kernel(tables, index, *_):
            rows = list(zip(index[5].tolist(),
                            map(tuple, table_rows(tables, index[:5]).tolist())))
            scored.extend(rows)
            return np.array([score_of[key] for key in rows], dtype=np.int64)

        expected = [best.copy(), scores.copy(), step.copy()]
        for i, (w, group) in enumerate(zip(window_rows.tolist(), points)):
            group_scores = [score_of[w, v] for v in group]
            top = python_ranked(np.array(group), group_scores)[:1]
            if top and group_scores[top[0]] > scores[i]:
                expected[0][i], expected[1][i] = group[top[0]], group_scores[top[0]]
            else:
                expected[2][i] /= 2.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finitekey, "_skl_rows", table_kernel)
            finitekey._compass_level(best, scores, step, window_rows, lower, upper, ())
        # Scored: exactly the points other than their incumbent, in vector order.
        assert scored == wanted
        assert [a.tolist() for a in (best, scores, step)] == [a.tolist() for a in expected]


class TestStencilSearch:
    def test_chosen_vector_inside_box(self, searched):
        p = searched.params
        for value, (lo, hi) in zip((p.mu1, p.mu2, p.px, p.p1, p.p2),
                                   searched.box.as_list()):
            assert lo <= value <= hi

    def test_result_is_the_scalar_oracle_at_the_chosen_params(self, searched):
        tallies = simulate_tallies(searched.params, searched.link,
                                   searched.window_half, searched.security)
        assert searched.result == skl(tallies, searched.params, searched.security)

    def test_one_scalar_skl_call_per_window(self, searched):
        assert searched.skl_calls == 1

    def test_no_lexsort_call_per_window(self, searched):
        # The grid and each stencil are built in vector order, and the final
        # best-of-3 pick compares vectors as lists, so nothing sorts vectors.
        assert searched.lexsort_calls == 0

    def test_no_unique_call_per_window(self, searched):
        assert searched.unique_calls == 0

    def test_fig2_study_makes_at_most_37_kernel_calls_and_45k_rows(self, monkeypatch):
        # One grid call per PE level, on its widest window; one call that
        # rescores the level seeds on every window; one grid call per window
        # whose seeds give no key; then one call per compass level for all
        # windows together.
        calls = []
        kernel = finitekey._skl_rows

        def counted(tables, index, windows, *args):
            assert index.shape[0] == 6
            calls.append((index.shape[1], len(set(index[5].tolist()))))
            return kernel(tables, index, windows, *args)

        monkeypatch.setattr(finitekey, "_skl_rows", counted)
        run_skl(parse_scenario(bundled_path("fig2_leo_haps")))
        grids = [n_windows for rows, n_windows in calls if rows == finitekey._GRID_POINTS ** 5]
        assert 0 < len(calls) <= 37
        assert sum(rows for rows, _ in calls) <= 45_000
        assert 0 < len(grids) <= 6
        assert set(grids) == {1}

    def test_fig2_study_tracemalloc_peak_at_most_2_5_mb(self):
        # One window's 3,125-row grid call sets the peak (about 2.1 MB; 1.91
        # MB with the stencil).  Grids of several windows in one call pass it.
        scenario = parse_scenario(bundled_path("fig2_leo_haps"))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_skl(scenario)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.5e6

    def test_stacked_failure_names_the_first_window_that_fails_alone(self, monkeypatch):
        # A kernel failure on the 14th window (pe=moderate, 4th dt) fails the
        # stacked search; the study then names that window.
        scenario = parse_scenario(bundled_path("fig2_leo_haps"))
        made = []
        kernel = finitekey._skl_rows

        class Recorded(AcquisitionWindow):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def failing(tables, index, windows, *args):
            if any(windows[w] is made[13] for w in set(index[5].tolist())):
                raise ArithmeticError("secret-key length is not finite")
            return kernel(tables, index, windows, *args)

        monkeypatch.setattr(finitekey, "AcquisitionWindow", Recorded)
        monkeypatch.setattr(finitekey, "_skl_rows", failing)
        label = pointing_levels(scenario)[1][0]
        dt_half = scenario.values["skl"]["dt_values_s"][3]
        with pytest.raises(StudyNumericalError,
                           match=f"^skl study failed at pe={label} dt_s={dt_half}: "
                                 "secret-key length is not finite$"):
            run_skl(scenario)

    def test_stacked_failure_that_no_window_repeats_alone_exits_3(self, monkeypatch,
                                                                  tmp_path):
        # A kernel that fails only on calls over several windows fails the
        # stacked search and no search alone; the study reports the stacked
        # failure, not the results of the searches alone.
        kernel = finitekey._skl_rows

        def failing(tables, index, windows, *args):
            if len(set(index[5].tolist())) > 1:
                raise ArithmeticError("secret-key length is not finite")
            return kernel(tables, index, windows, *args)

        monkeypatch.setattr(finitekey, "_skl_rows", failing)
        out, stderr = tmp_path / "skl.csv", io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["skl", "--scenario", "fig2_leo_haps", "--out", str(out),
                             "--svg", str(tmp_path / "skl.svg")])
        assert code == 3
        assert stderr.getvalue() == ("numerical failure: skl study failed: "
                                     "secret-key length is not finite\n")
        assert list(tmp_path.iterdir()) == []


GOLDEN = Path(__file__).parent / "golden"


def own_grid_best(window, security, box, mu3, source_rate):
    """The best kernel score of a window's own 3,125-point seeding grid."""
    axes = np.array([np.linspace(lo, hi, finitekey._GRID_POINTS) for lo, hi in box.as_list()])
    grid = np.indices((finitekey._GRID_POINTS,) * 5 + (1,)).reshape(6, -1)
    return int(finitekey._skl_rows(axes, grid, [window], security, mu3, source_rate).max())


class TestLevelSeeds:
    @pytest.mark.parametrize("path", [bundled_path("fig2_leo_haps"),
                                      GOLDEN / "skl_pass_seed5_study.scn",
                                      GOLDEN / "skl_pass_seed11_study.scn"],
                             ids=["fig2", "seed5", "seed11"])
    def test_no_window_reports_less_than_its_own_grid_best(self, path):
        scenario = parse_scenario(path)
        proto = scenario.values["protocol"]
        search = (build_security(scenario), build_bounds_box(scenario), proto["mu3"],
                  proto["source_rate_mhz"] * MHZ)
        rows = iter(run_skl(scenario).rows)
        for label, sigma in pointing_levels(scenario):
            link = link_timeseries(build_pass(scenario), build_budget(scenario, sigma),
                                   build_noise(scenario))
            for dt_half in scenario.values["skl"]["dt_values_s"]:
                dt_s, pe_label, skl_bits = next(rows)[:3]
                assert (pe_label, dt_s) == (label, dt_half)
                assert skl_bits >= own_grid_best(AcquisitionWindow(link, dt_half), *search)

    def test_fig2_strong_short_windows_keep_their_best_grid_point(self):
        # Their level seeds give no key, so their own grids seed them, and
        # they report that grid's best point, which scores 0.
        rows = {(row[1], row[0]): row
                for row in run_skl(parse_scenario(bundled_path("fig2_leo_haps"))).rows}
        for dt_half in (10.0, 20.0):
            row = rows["strong", dt_half]
            assert (row[2], row[5:]) == (0, (0.3, 0.05, 0.5, 0.3, 0.1))

    def test_dead_level_scores_the_widest_grid_once_and_each_other_grid(self, monkeypatch):
        link = flat_link(0.0, 0.0)
        level = [AcquisitionWindow(link, 20.0), AcquisitionWindow(link, 50.0)]
        grids = []
        kernel = finitekey._skl_rows

        def counted(tables, index, windows, *args):
            if index.shape[1] == finitekey._GRID_POINTS ** 5:
                grids.append(sorted({windows[w].eta.size for w in index[5].tolist()}))
            return kernel(tables, index, windows, *args)

        monkeypatch.setattr(finitekey, "_skl_rows", counted)
        found = optimize_windows([level], SEC)
        assert grids == [[101], [41]]
        assert found == [optimize_params(link, dt_half, SEC) for dt_half in (20.0, 50.0)]
