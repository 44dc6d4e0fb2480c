"""Decompose the LEO-to-HAPS link budget at culmination.

Shows how diffraction spreading, pointing jitter and the fixed
efficiencies stack up in dB for the three pointing-error severities.
"""

import math

from skyqlink.channel import (
    LinkBudget,
    beam_radius,
    centered_transmittance,
    pointing_transmittance_expected,
    system_loss,
)
from skyqlink.scenario import parse_scenario
from skyqlink.scenarios import bundled_path
from skyqlink.studies import pointing_levels

RANGE_M = 515e3  # culmination range, 535 km orbit over a 20 km platform

base = dict(wavelength=810e-9, divergence_full=33e-6,
            tx_aperture=0.09, rx_aperture=0.35,
            eta_tx=0.85, eta_rx=0.85, eta_det=0.65)

budget0 = LinkBudget(**base)
w = beam_radius(budget0, RANGE_M)
print(f"beam footprint radius at {RANGE_M / 1e3:.0f} km: {w:.2f} m "
      f"(vs {budget0.rx_aperture * 100:.0f} cm receive aperture)")
print(f"centred geometric collection: "
      f"{-10 * math.log10(centered_transmittance(budget0, RANGE_M)):.1f} dB\n")

print("PE level    sigma(urad)   pointing+geom(dB)   total eta_sys(dB)")
for label, sigma in pointing_levels(parse_scenario(bundled_path("fig2_leo_haps"))):
    budget = LinkBudget(**base, pointing_sigma=sigma)
    pointing_db = -10 * math.log10(pointing_transmittance_expected(budget, RANGE_M))
    total = system_loss(budget, RANGE_M)
    print(f"{label:10s} {sigma * 1e6:10.1f}   {pointing_db:17.2f}   {total.db:17.2f}")
