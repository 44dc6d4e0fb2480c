"""Free-space quantum link simulation for satellite, HAPS, and LAPS platforms.

The package is organised as a small numpy library:

- :mod:`skyqlink.geometry` -- pass geometry (elevation, slant range, slew rate)
- :mod:`skyqlink.atmosphere` -- turbulence and wind profiles, Fried length,
  Greenwood frequency, scintillation index
- :mod:`skyqlink.channel` -- link budgets, pointing-jitter transmittance,
  background count rates
- :mod:`skyqlink.finitekey` -- finite-key decoy-state BB84 secret-key length
  and protocol-parameter optimisation
- :mod:`skyqlink.entanglement` -- dual-downlink entanglement fidelity under
  background light
- :mod:`skyqlink.scenario` / :mod:`skyqlink.studies` / :mod:`skyqlink.cli` --
  scenario files, study orchestration, CSV/SVG emission
"""

__version__ = "0.1.0"
