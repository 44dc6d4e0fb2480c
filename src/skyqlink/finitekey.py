"""Finite-key decoy-state efficient BB84 secret-key length.

The transmitter interleaves three pulse intensities (signal, decoy,
vacuum by default) and biases the basis choice toward the key basis X.
Detection statistics accumulated over an acquisition window are turned
into vacuum/single-photon bounds via Hoeffding-corrected decoy-state
linear programs, a phase-error bound with a finite-sample correction
term, and finally the extractable secret-key length

    l = s_X0 + s_X1 (1 - h(phi_X)) - lambda_EC
        - 6 log2(21 / eps_sec) - log2(2 / eps_cor)

with error-correction leakage lambda_EC = f_EC n_X h(QBER_X).  Tallies
are deterministic expected values, which keeps the whole pipeline
reproducible and matches the smooth key-length curves this model is
meant to generate; no per-pulse sampling is performed.

The kernel, :func:`_skl_rows`, scores ``(mu1, mu2, px, p1, p2)`` rows
given as five per-axis value tables and a ``(6, N)`` index: each row's
entry in every table, then its window, so that one call scores rows of
many windows; the search builds the index without sorting.  Up to the
decoy bounds it repeats the scalar ``skl(simulate_tallies(...))`` path's
floating-point operations in order: each window's sums are one
:meth:`AcquisitionWindow.sums` call over the intensities its rows read,
the scalar path's own; ``dt`` and the sample count are read per row;
``math.exp`` of each intensity is computed once per table entry; every
square is an IEEE product in both paths; both bases' bounds are one pass
over ``(basis, intensity, row)`` arrays.  The logarithmic tail is numpy
expressions over the feasible rows; numpy's SIMD ``log2`` may differ from
libm's in the last ulp, which can move a row's floats but not its integer
key length.  Vectors that :class:`ProtocolParams` would reject score -1
instead of raising; inconsistent tallies still raise.

:func:`optimize_windows` searches all windows of a study together on the
kernel: one seeding-grid call per pointing level, whose best points seed
all its windows, then a fixed number of compass levels (Kolda, Lewis &
Torczon, SIAM Review 45(3), 2003), each one kernel call for the incumbents
of every window.  :func:`optimize_params` is its one-window case.  The
scalar functions (:func:`skl`, :func:`decoy_bounds`, :func:`simulate_tallies`,
:func:`phase_error`) are the kernel's reference, and build each reported row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import LinkSample

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ProtocolParams:
    """Decoy-state BB84 source settings.

    ``mu1 > mu2 > mu3 >= 0`` with ``mu1 > mu2 + mu3``; ``p1 + p2 + p3 = 1``
    are the intensity probabilities and ``px`` the probability that either
    party picks the key basis X.
    """

    mu1: float
    mu2: float
    mu3: float = 0.0
    p1: float = 0.6
    p2: float = 0.25
    p3: float = 0.15
    px: float = 0.65
    source_rate: float = 2e8

    def __post_init__(self) -> None:
        if not (self.mu1 > self.mu2 > self.mu3 >= 0.0):
            raise ValueError(
                f"need mu1 > mu2 > mu3 >= 0, got {self.mu1}, {self.mu2}, {self.mu3}")
        if not self.mu1 > self.mu2 + self.mu3:
            raise ValueError("need mu1 > mu2 + mu3 for the decoy bounds")
        probs = (self.p1, self.p2, self.p3)
        if any(not 0.0 < p < 1.0 for p in probs):
            raise ValueError(f"intensity probabilities must be in (0,1), got {probs}")
        total = self.p1 + self.p2 + self.p3
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"intensity probabilities must sum to 1, got {total}")
        if not 0.0 < self.px < 1.0:
            raise ValueError(f"px must be in (0,1), got {self.px}")
        if self.source_rate <= 0:
            raise ValueError(f"source rate must be > 0, got {self.source_rate}")

    @property
    def intensities(self) -> tuple[float, float, float]:
        return (self.mu1, self.mu2, self.mu3)

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def tau(self, n: int) -> float:
        """Probability that an emitted pulse carries n photons."""
        # Plain left-to-right accumulation, which _skl_rows repeats exactly
        # (sum() compensates float rounding from Python 3.12 on).
        total = 0.0
        for p, mu in zip(self.probabilities, self.intensities):
            total += p * math.exp(-mu) * mu**n / math.factorial(n)
        return total


@dataclass(frozen=True)
class SecurityParams:
    """Security failure budgets and error-correction model."""

    eps_sec: float = 1e-9
    eps_cor: float = 1e-15
    f_ec: float = 1.16
    e_intrinsic: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_sec < 1.0 or not 0.0 < self.eps_cor < 1.0:
            raise ValueError("failure probabilities must be in (0,1)")
        if self.eps_sec < 1e-150:
            # (21 / eps_sec) * (21 / eps_sec) in the phase-error bound overflows.
            raise ValueError(f"eps_sec must be >= 1e-150, got {self.eps_sec}")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec}")
        if not 0.0 <= self.e_intrinsic < 0.5:
            raise ValueError(f"e_intrinsic must be in [0, 0.5), got {self.e_intrinsic}")


BASIS_X, BASIS_Z = 0, 1


@dataclass(frozen=True)
class TallyCounts:
    """Expected sent/detected/errored counts per basis (X, Z) and intensity.

    Arrays have shape (2, 3): axis 0 is the sifted basis (X = key basis,
    Z = phase-estimation basis), axis 1 the intensity index.
    """

    sent: np.ndarray
    detected: np.ndarray
    errored: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.sent, self.detected, self.errored):
            if arr.shape != (2, 3):
                raise ValueError(f"tally arrays must have shape (2, 3), got {arr.shape}")
            arr.flags.writeable = False
        if (self.errored < -1e-9).any() or (self.errored > self.detected + 1e-9).any() \
                or (self.detected > self.sent + 1e-9).any():
            raise ValueError("tallies must satisfy 0 <= errored <= detected <= sent")

    # Three cells added left to right, the order np.sum uses for them.
    def n_basis(self, basis: int) -> float:
        n1, n2, n3 = self.detected[basis].tolist()
        return n1 + n2 + n3

    def m_basis(self, basis: int) -> float:
        m1, m2, m3 = self.errored[basis].tolist()
        return m1 + m2 + m3


class DecoyBounds(NamedTuple):
    s0: float
    s1: float
    v1: float
    feasible: bool


@dataclass(frozen=True)
class FiniteKeyResult:
    """Secret-key length with its key-basis QBER and phase-error bound."""

    skl: int
    qber_key_basis: float
    phase_error_bound: float
    feasible: bool


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class AcquisitionWindow:
    """The samples of ``link``, a :class:`LinkSample` list or the ``(n, 3)``
    array of its rows, with |t| <= window_half.

    Holds the per-sample system transmittance ``eta``, the noise-click
    probability ``p_noise`` and the sample step ``dt``.
    """

    def __init__(self, link: Sequence[LinkSample] | np.ndarray, window_half: float) -> None:
        if window_half <= 0:
            raise ValueError(f"window_half must be > 0, got {window_half}")
        t, eta, n_b = np.asarray(link, dtype=float).reshape(-1, 3).T
        if len(t) < 2:
            raise ValueError("link must contain at least two samples")
        steps = np.diff(t)
        dt = float(steps[0])
        if np.any(np.abs(steps - dt) > 1e-9 * max(1.0, dt)):
            raise ValueError("link samples must be uniformly spaced in time")
        if window_half > float(t[-1]) + dt / 2 or -window_half < float(t[0]) - dt / 2:
            raise ValueError(
                f"window_half {window_half} s exceeds the link support "
                f"[{t[0]}, {t[-1]}] s")
        keep = np.abs(t) <= window_half + 1e-9
        self.eta = eta[keep]
        self.p_noise = 1.0 - np.exp(-n_b[keep])
        self._no_noise = 1.0 - 2.0 * self.p_noise
        self.dt = dt

    def sums(self, mu: np.ndarray, e_intrinsic: float) -> tuple[np.ndarray, np.ndarray]:
        """Window sums of the click and error probabilities at each intensity
        in ``mu``, each bit-equal to the 1-D sum over that intensity's row."""
        # (-mu) * eta is -(mu * eta) bit for bit; the passes run in place.
        no_signal = np.multiply.outer(np.negative(mu), self.eta)
        np.exp(no_signal, out=no_signal)
        click = self._no_noise * no_signal
        err = np.subtract(1.0, no_signal)
        err *= e_intrinsic
        err += np.multiply(no_signal, self.p_noise, out=no_signal)
        np.subtract(1.0, click, out=click)
        return np.add.reduce(click, axis=-1), np.add.reduce(err, axis=-1)


def _tallies(params: ProtocolParams, window: AcquisitionWindow,
             security: SecurityParams) -> TallyCounts:
    pulses_per_sample = params.source_rate * window.dt
    basis_prob = (params.px * params.px, (1.0 - params.px) * (1.0 - params.px))
    # weight[b][k]: pulses sifted into basis b at intensity k per sample.
    weight = [[pulses_per_sample * basis_prob[b] * p_k for p_k in params.probabilities]
              for b in (BASIS_X, BASIS_Z)]
    sums = window.sums(params.intensities, security.e_intrinsic)
    click, err = (a.tolist() for a in sums)
    n_samples = len(window.eta)
    return TallyCounts(
        sent=np.array([[w * n_samples for w in row] for row in weight]),
        detected=np.array([[w * c for w, c in zip(row, click)] for row in weight]),
        errored=np.array([[w * e for w, e in zip(row, err)] for row in weight]))


def simulate_tallies(params: ProtocolParams, link: Sequence[LinkSample],
                     window_half: float, security: SecurityParams) -> TallyCounts:
    """Expected detection tallies accumulated over [-window_half, +window_half].

    Per sample and intensity mu the click probability is

        D_mu = 1 - (1 - 2 p_noise) exp(-eta_sys mu)

    (two detectors per basis, each with per-gate noise-click probability
    ``p_noise`` from the background/dark counts).  A click is signal-borne
    with probability S = 1 - exp(-eta_sys mu) and errs with probability
    ``e_intrinsic``; a noise-only click errs half the time.  Sifting keeps
    the px^2 / (1-px)^2 fractions where both parties chose X / Z.
    """
    return _tallies(params, AcquisitionWindow(link, window_half), security)


def decoy_bounds(tallies: TallyCounts, params: ProtocolParams,
                 security: SecurityParams, basis: int = BASIS_X,
                 hoeffding: bool = True) -> DecoyBounds:
    """Vacuum and single-photon bounds for one basis.

    Observed per-intensity counts are first Hoeffding-corrected with the
    concentration budget eps_sec / 21 (matching the composability terms in
    the key-length formula), then combined into the standard two-decoy
    bounds

        s0 >= tau0 (mu2 n3^- - mu3 n2^+) / (mu2 - mu3)
        s1 >= tau1 mu1 [n2^- - n3^+ - (mu2^2 - mu3^2)/mu1^2 (n1^+ - s0/tau0)]
              / (mu1 (mu2 - mu3) - mu2^2 + mu3^2)
        v1 <= tau1 (m2^+ - m3^-) / (mu2 - mu3)

    with n_k^+- = (e^mu_k / p_k)(n_k +- sqrt(n/2 ln(1/eps1))).  The vacuum
    bound is clamped at zero when statistics cannot support it; the result
    is flagged infeasible when the single-photon bound dies.

    Passing ``hoeffding=False`` drops the concentration terms, giving the
    asymptotic (infinite-sample) bounds used by the test oracles.
    """
    mu = params.intensities
    prob = params.probabilities
    n_cells = tallies.detected[basis].tolist()
    m_cells = tallies.errored[basis].tolist()
    n_tot = tallies.n_basis(basis)
    m_tot = tallies.m_basis(basis)
    if n_tot <= 0.0:
        return DecoyBounds(0.0, 0.0, 0.0, False)

    if hoeffding:
        eps1 = security.eps_sec / 21.0
        delta_n = math.sqrt(n_tot / 2.0 * math.log(1.0 / eps1))
        delta_m = math.sqrt(m_tot / 2.0 * math.log(1.0 / eps1)) if m_tot > 0 else 0.0
    else:
        delta_n = delta_m = 0.0

    scale = [math.exp(mu[k]) / prob[k] for k in range(3)]
    n_plus = [scale[k] * (n_cells[k] + delta_n) for k in range(3)]
    n_minus = [scale[k] * (n_cells[k] - delta_n) for k in range(3)]
    m_plus = [scale[k] * (m_cells[k] + delta_m) for k in range(3)]
    m_minus = [scale[k] * (m_cells[k] - delta_m) for k in range(3)]

    tau0, tau1 = params.tau(0), params.tau(1)
    mu12, mu23 = mu[0], mu[1] - mu[2]

    s0 = tau0 * (mu[1] * n_minus[2] - mu[2] * n_plus[1]) / mu23
    s0 = max(0.0, s0)

    denom = mu12 * mu23 - mu[1] * mu[1] + mu[2] * mu[2]
    s1 = (tau1 * mu12
          * (n_minus[1] - n_plus[2]
             - (mu[1] * mu[1] - mu[2] * mu[2]) / (mu12 * mu12) * (n_plus[0] - s0 / tau0))
          / denom)

    v1 = max(0.0, tau1 * (m_plus[1] - m_minus[2]) / mu23)
    return DecoyBounds(s0, s1, v1, s1 > 0.0)


def _gamma_correction(a: float, b: float, c: float, d: float) -> float:
    """Finite-sample correction of the measured-to-unmeasured error transfer."""
    if b <= 0.0:
        return 0.0
    spread = (c + d) * (1.0 - b) * b
    log_arg = (c + d) / (c * d * (1.0 - b) * b) * ((21.0 / a) * (21.0 / a))
    if log_arg <= 1.0:
        return 0.0
    return math.sqrt(spread / (c * d * _LN2) * math.log2(log_arg))


def phase_error(s_z1: float, v_z1: float, s_x1: float,
                security: SecurityParams) -> float:
    """Upper bound on the X-basis single-photon phase-error rate.

    Transfers the Z-basis single-photon error ratio to the key basis with
    a finite-sample penalty; capped at 1/2.
    """
    if s_z1 <= 0.0 or s_x1 <= 0.0:
        raise ValueError("single-photon counts must be positive")
    if not 0.0 <= v_z1 <= s_z1:
        raise ValueError(f"need 0 <= v_z1 <= s_z1, got {v_z1}, {s_z1}")
    b = v_z1 / s_z1
    if b >= 0.5:
        return 0.5
    return min(0.5, b + _gamma_correction(security.eps_sec, b, s_z1, s_x1))


def skl(tallies: TallyCounts, params: ProtocolParams,
        security: SecurityParams) -> FiniteKeyResult:
    """Secret-key length for one acquisition window.

    The key is drawn from the X basis; the Z basis feeds the phase-error
    estimate.  Returns a zero-length infeasible result whenever the decoy
    bounds cannot certify a positive single-photon contribution.
    """
    n_x = tallies.n_basis(BASIS_X)
    qber = tallies.m_basis(BASIS_X) / n_x if n_x > 0 else 0.0

    bx = decoy_bounds(tallies, params, security, BASIS_X)
    bz = decoy_bounds(tallies, params, security, BASIS_Z)
    if n_x <= 0 or not (bx.feasible and bz.feasible):
        return FiniteKeyResult(0, qber, 0.5, False)

    phi = phase_error(bz.s1, min(bz.v1, bz.s1), bx.s1, security)
    leak_ec = security.f_ec * n_x * binary_entropy(qber)
    length = (bx.s0 + bx.s1 * (1.0 - binary_entropy(phi)) - leak_ec
              - 6.0 * math.log2(21.0 / security.eps_sec)
              - math.log2(2.0 / security.eps_cor))
    bits = max(0, min(int(math.floor(length)), int(math.floor(n_x))))
    return FiniteKeyResult(bits, qber, phi, True)


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """:func:`binary_entropy` of each entry, raising as it does."""
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError("binary entropy argument must be in [0,1]")
    with np.errstate(all="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def _phase_error_rows(s_z1: np.ndarray, v_z1: np.ndarray, s_x1: np.ndarray,
                      eps_sec: float) -> np.ndarray:
    """:func:`phase_error` of each row whose arguments it would accept.

    Where b >= 1/2, b + gamma is >= 1/2 or NaN, so the cap covers the
    scalar function's early return.
    """
    b = v_z1 / s_z1
    c, d = s_z1, s_x1
    with np.errstate(all="ignore"):
        spread = (c + d) * (1.0 - b) * b
        log_arg = (c + d) / (c * d * (1.0 - b) * b) * ((21.0 / eps_sec) * (21.0 / eps_sec))
        gamma = np.sqrt(spread / (c * d * _LN2) * np.log2(log_arg))
    phi = b + np.where((b <= 0.0) | (log_arg <= 1.0), 0.0, gamma)
    return np.where(phi < 0.5, phi, 0.5)


def _window_sums(mu_table: np.ndarray, mu_rows: np.ndarray, window_rows: np.ndarray,
                 windows: Sequence[AcquisitionWindow], e_intrinsic: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Click and error sums at ``mu_table[mu_rows]`` over window
    ``windows[window_rows]``, from one :meth:`AcquisitionWindow.sums` call
    per window over the table entries its rows read."""
    read = np.zeros((len(windows), len(mu_table)), dtype=bool)
    read[window_rows, mu_rows] = True
    sums = [window.sums(mu_table[entries], e_intrinsic)
            for window, entries, any_read in zip(windows, read, read.any(axis=1)) if any_read]
    slot = (np.cumsum(read) - 1).reshape(read.shape)[window_rows, mu_rows]
    return tuple(np.concatenate(column)[slot] for column in zip(*sums))


def _skl_rows(tables: Sequence[np.ndarray], index: np.ndarray,
              windows: Sequence[AcquisitionWindow], security: SecurityParams,
              mu3: float, source_rate: float) -> np.ndarray:
    """``skl(simulate_tallies(...)).skl`` of the ``(mu1, mu2, px, p1, p2)``
    rows whose value on axis ``a`` is ``tables[a][index[a]]``, over window
    ``windows[index[5]]``, for five 1-D value tables and a ``(6, N)`` index;
    -1 where :class:`ProtocolParams` rejects the vector (p3 = 1 - p1 - p2)."""
    bits = np.full(index.shape[1], -1, dtype=np.int64)
    if source_rate <= 0:
        return bits
    mu1, mu2, px, p1, p2 = (table[rows] for table, rows in zip(tables, index))
    p3 = 1.0 - p1 - p2
    valid = ((mu1 > mu2) & (mu2 > mu3) & (mu3 >= 0.0) & (mu1 > mu2 + mu3)
             & (p1 > 0.0) & (p1 < 1.0) & (p2 > 0.0) & (p2 < 1.0)
             & (p3 > 0.0) & (p3 < 1.0) & (px > 0.0) & (px < 1.0))
    if not valid.any():
        return bits
    mu1, mu2, px, p1, p2, p3 = (a[valid] for a in (mu1, mu2, px, p1, p2, p3))
    mu1_rows, mu2_rows = index[:2, valid]
    window_rows = index[5, valid]

    # Per-intensity exponentials, once per table entry.  An entry that no
    # valid row reads is taken as 0, since its exponentials may overflow.
    # Arrays below are indexed [intensity, row] or [basis, intensity, row].
    mu_table = np.concatenate([[mu3], tables[0], tables[1]])
    mu_rows = np.array([1 + mu1_rows, 1 + len(tables[0]) + mu2_rows, np.zeros_like(mu1_rows)])
    mu_table = np.where(np.bincount(mu_rows.ravel(), minlength=len(mu_table)), mu_table, 0.0)
    scalar_terms = [(math.exp(v), math.exp(-v)) for v in mu_table.tolist()]
    mu, exp_mu, exp_neg = (terms[mu_rows] for terms in np.array(
        [mu_table, *zip(*scalar_terms)]))
    mu_sq = mu * mu
    click, err = _window_sums(mu_table, mu_rows, window_rows, windows,
                              security.e_intrinsic)
    prob = np.array([p1, p2, p3])
    basis_prob = np.array([px * px, (1.0 - px) * (1.0 - px)])

    # Tallies, as _tallies builds them, from each row's window's pulses per
    # sample and sample count.
    weight = (np.array([source_rate * w.dt for w in windows])[window_rows]
              * basis_prob[:, None, :] * prob)
    detected, errored = weight * click, weight * err
    if (errored < -1e-9).any() or (errored > detected + 1e-9).any() \
            or (detected > weight * np.array([len(w.eta) for w in windows])[window_rows]
                + 1e-9).any():
        raise ValueError("tallies must satisfy 0 <= errored <= detected <= sent")

    # Both bases' decoy bounds, as decoy_bounds computes them.
    log_eps = math.log(1.0 / (security.eps_sec / 21.0))
    tau0, tau1 = prob * exp_neg, prob * exp_neg * mu
    tau0, tau1 = tau0[0] + tau0[1] + tau0[2], tau1[0] + tau1[1] + tau1[2]
    mu23 = mu2 - mu3
    denom = mu1 * mu23 - mu_sq[1] + mu_sq[2]
    # Like the scalar floats, overflow to inf and NaN pass silently.
    with np.errstate(all="ignore"):
        scale = exp_mu / prob
        n_tot = detected[:, 0] + detected[:, 1] + detected[:, 2]
        m_tot = errored[:, 0] + errored[:, 1] + errored[:, 2]
        if ((n_tot > 0.0) & ((tau0 == 0.0) | (mu_sq[0] == 0.0) | (denom == 0.0))).any():
            raise ZeroDivisionError("float division by zero")
        delta_n = np.sqrt(n_tot / 2.0 * log_eps)[:, None]
        delta_m = np.where(m_tot > 0, np.sqrt(m_tot / 2.0 * log_eps), 0.0)
        n_plus = scale * (detected + delta_n)
        n_minus = scale * (detected - delta_n)
        m_plus = scale[1] * (errored[:, 1] + delta_m)
        m_minus = scale[2] * (errored[:, 2] - delta_m)
        s0 = tau0 * (mu2 * n_minus[:, 2] - mu3 * n_plus[:, 1]) / mu23
        s0 = np.where(s0 > 0.0, s0, 0.0)
        s1 = (tau1 * mu1
              * (n_minus[:, 1] - n_plus[:, 2]
                 - (mu_sq[1] - mu_sq[2]) / mu_sq[0] * (n_plus[:, 0] - s0 / tau0))
              / denom)
        v1 = tau1 * (m_plus - m_minus) / mu23
        v1 = np.where(v1 > 0.0, v1, 0.0)

    del weight, detected, errored, n_plus, n_minus  # else the tail sets the memory peak
    # Key length over the feasible rows.
    feasible = ((n_tot > 0.0) & (s1 > 0.0)).all(axis=0)
    n_x, m_x, s0_x, s1_x, s1_z, v1_z = (
        a[feasible] for a in (n_tot[BASIS_X], m_tot[BASIS_X], s0[BASIS_X],
                              s1[BASIS_X], s1[BASIS_Z], v1[BASIS_Z]))
    phi = _phase_error_rows(s1_z, np.minimum(v1_z, s1_z), s1_x, security.eps_sec)
    length = (s0_x + s1_x * (1.0 - _entropy_rows(phi))
              - security.f_ec * n_x * _entropy_rows(m_x / n_x)
              - 6.0 * math.log2(21.0 / security.eps_sec)
              - math.log2(2.0 / security.eps_cor))
    if not np.isfinite(length).all():
        raise ArithmeticError("secret-key length is not finite")
    key = np.maximum(0.0, np.minimum(np.floor(length), np.floor(n_x)))
    if (key >= 2.0**63).any():
        raise ArithmeticError("secret-key length exceeds the int64 range")
    scored = np.zeros(len(mu1), dtype=np.int64)
    scored[feasible] = key
    bits[valid] = scored
    return bits


@dataclass(frozen=True)
class BoundsBox:
    """Closed search ranges for the five optimised protocol parameters."""

    mu1: tuple[float, float] = (0.3, 1.0)
    mu2: tuple[float, float] = (0.05, 0.35)
    px: tuple[float, float] = (0.5, 0.9)
    p1: tuple[float, float] = (0.3, 0.8)
    p2: tuple[float, float] = (0.1, 0.5)

    def __post_init__(self) -> None:
        for name, (lo, hi) in zip(("mu1", "mu2", "px", "p1", "p2"), self.as_list()):
            if not lo < hi:
                raise ValueError(f"{name} range must increase, got ({lo}, {hi})")

    def as_list(self) -> list[tuple[float, float]]:
        return [self.mu1, self.mu2, self.px, self.p1, self.p2]


# Seeding grid points per axis, and the best grid points refined.
_GRID_POINTS = 5
_N_STARTS = 3
# Compass levels after the seeding grid.  With a grid per fig2 window, 30
# lost 0.0059% of the key of a 3^5 stencil's 14; 18 lost 0.016%, 60 0.0019%.
_COMPASS_LEVELS = 30
# Axis rows of a (5, n) value table, and the value-table column (0 the
# incumbent's value, 1 its -step value, 2 its +step value) that each axis
# (row) takes at each compass point -e0..-e4, +e4..+e0 (column): these
# points are in vector order.
_AXES = np.arange(5)[:, None]
_COMPASS = np.hstack([np.eye(5), 2 * np.eye(5)[:, ::-1]]).astype(np.intp)


def _compass_level(best: np.ndarray, scores: np.ndarray, step: np.ndarray,
                   window_rows: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   kernel_args: tuple) -> None:
    """Move each incumbent (a row of ``best``, with its score, step and
    window index) in place to its best strictly better compass point, ±step
    on one axis clipped to the box, or halve its step.  A point that
    clipping returns to the incumbent is not scored.  The points are built
    in vector order, and unscored points read -2, so the first maximum is
    the smallest best vector.
    """
    values = np.stack([best, np.maximum(best - step, lower), np.minimum(best + step, upper)],
                      axis=-1)
    moved = values[:, :, 1:] != values[:, :, :1]
    fresh = np.hstack([moved[:, :, 0], moved[:, ::-1, 1]])
    tables = values.transpose(1, 0, 2).reshape(5, -1)
    index = 3 * np.arange(len(best))[:, None] + _COMPASS[:, None, :]
    index = np.concatenate([index, np.broadcast_to(window_rows[:, None], fresh.shape)[None]])
    point_scores = np.full(fresh.shape, -2, dtype=np.int64)
    point_scores[fresh] = _skl_rows(tables, index[:, fresh], *kernel_args)
    rows = np.arange(len(best))
    pick = point_scores.argmax(axis=1)
    top = point_scores[rows, pick]
    better = top > scores
    best[better] = tables[_AXES, index[:5, rows, pick]].T[better]
    scores[better] = top[better]
    step[~better] /= 2.0


def optimize_windows(levels: Sequence[Sequence[AcquisitionWindow]],
                     security: SecurityParams, bounds_box: BoundsBox | None = None,
                     mu3: float = 0.0, source_rate: float = 2e8
                     ) -> list[tuple[ProtocolParams, FiniteKeyResult]]:
    """Maximise the SKL of each window of ``levels`` (lists of windows cut
    from one link each) over (mu1, mu2, px, p1, p2); results in order.

    A 5-point-per-axis grid (3,125 points, in vector order) is scored on
    each level's widest window; its 3 best points by (-score, vector) seed
    every window of the level, with a step of half the grid spacing, and are
    rescored in one kernel call.  A window whose seeds give no key is seeded
    from its own grid, so it reports 0 only if that grid does, and then its
    best grid point.  Compass levels, one kernel call each, refine the seeds
    of windows with key (:func:`_compass_level`); the best wins, as one
    scalar :func:`skl` call.  ValueError means no grid point is valid:
    validity does not depend on the window, and the middle grid point is the
    box centre up to rounding, so barring a validity boundary within one ulp
    of it, no vector of the box is.
    """
    lower, upper = np.array((bounds_box or BoundsBox()).as_list()).T
    axes = np.array([np.linspace(lo, hi, _GRID_POINTS) for lo, hi in zip(lower, upper)])
    grid = np.indices((_GRID_POINTS,) * 5 + (1,)).reshape(6, -1)  # row 5: window 0
    windows = [window for level in levels for window in level]
    kernel_args = (windows, security, mu3, source_rate)

    def ranked_grid(w: int) -> tuple[np.ndarray, np.ndarray]:
        # The grid is in vector order, so a stable sort ranks by (-score, vector).
        grid[5] = w
        grid_scores = _skl_rows(axes, grid, *kernel_args)
        ranked = np.argsort(-grid_scores, kind="stable")[:_N_STARTS]
        if grid_scores[ranked[0]] < 0:
            raise ValueError("bounds box contains no valid protocol-parameter combination")
        return grid[:, ranked], grid_scores[ranked]

    # index[:, w, k]: seed k of window w, as grid indices and window index.
    index = np.tile(np.arange(len(windows))[:, None], (6, 1, _N_STARTS))
    widest = []
    for first, level in zip(np.cumsum([0, *map(len, levels)]).tolist(), levels):
        widest.append(first + int(np.argmax([len(window.eta) for window in level])))
        index[:5, first:first + len(level)] = ranked_grid(widest[-1])[0][:5, None]
    scores = _skl_rows(axes, index.reshape(6, -1), *kernel_args).reshape(-1, _N_STARTS)
    for w in sorted(set(np.flatnonzero(scores.max(axis=1) <= 0).tolist()) - set(widest)):
        index[:, w], scores[w] = ranked_grid(w)
    live = np.repeat(scores.max(axis=1) > 0, _N_STARTS)
    best, scores = axes[_AXES, index[:5].reshape(5, -1)].T, scores.ravel()
    incumbents, incumbent_scores = best[live], scores[live]
    step = np.tile((upper - lower) / (_GRID_POINTS - 1) / 2.0, (len(incumbents), 1))
    window_rows = index[5].ravel()[live]
    for _ in range(_COMPASS_LEVELS if live.any() else 0):
        _compass_level(incumbents, incumbent_scores, step, window_rows, lower, upper,
                       kernel_args)
    best[live], scores[live] = incumbents, incumbent_scores

    results = []
    for window, window_best, window_scores in zip(
            windows, best.reshape(-1, _N_STARTS, 5), scores.reshape(-1, _N_STARTS)):
        mu1, mu2, px, p1, p2 = min(zip((-window_scores).tolist(), window_best.tolist()))[1]
        params = ProtocolParams(mu1, mu2, mu3, p1, p2, 1.0 - p1 - p2, px, source_rate)
        results.append((params, skl(_tallies(params, window, security), params, security)))
    return results


def optimize_params(link: Sequence[LinkSample], window_half: float,
                    security: SecurityParams, bounds_box: BoundsBox | None = None,
                    mu3: float = 0.0, source_rate: float = 2e8
                    ) -> tuple[ProtocolParams, FiniteKeyResult]:
    """:func:`optimize_windows` for the one window |t| <= window_half of ``link``."""
    return optimize_windows([[AcquisitionWindow(link, window_half)]], security,
                            bounds_box, mu3, source_rate)[0]
