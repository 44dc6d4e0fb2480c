"""Study orchestration: scenario wiring, sweeps, CSV reports, plot recipes.

Each ``run_*`` function turns a resolved scenario into a deterministic
:class:`StudyReport`: fixed column order, rows in sweep order, and
metadata lines that echo every resolved configuration value (so a report
header replayed as a scenario reproduces the report byte for byte).
Every study runs in the calling thread, and evaluates each quantity over
its whole sweep in one array call rather than point by point.  ``skl`` and
``turbulence`` import their physics (``finitekey``, ``atmosphere``) as they run.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from . import __version__
from .channel import LinkBudget, NoiseEnvironment, link_timeseries, system_loss
from .entanglement import fidelity_sweep
from .geometry import (
    PassGeometry,
    propagate_pass,
    short_range_path,
    static_pass,
)
from .scenario import CM, KM, MHZ, NM, NS, URAD, Scenario
from .svg import AxesSpec


class StudyNumericalError(RuntimeError):
    """Numerical failure inside a sweep, naming the offending point."""


@dataclass(frozen=True)
class StudyReport:
    study: str
    digest: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    warnings: tuple[str, ...] = ()
    config_lines: tuple[str, ...] = field(default_factory=tuple)

    def metadata_lines(self) -> list[str]:
        lines = [f"# skyqlink {__version__} study={self.study}",
                 f"# digest sha256:{self.digest}"]
        lines += [f"# config {line}" for line in self.config_lines]
        lines += [f"# warning {w}" for w in self.warnings]
        return lines

    def to_csv(self) -> str:
        out = self.metadata_lines()
        out.append(",".join(self.columns))
        if self.rows:
            # One ``%`` format for the whole table.  A column holds one type
            # (float, int or text), so its first cell picks "%.9g" or "%s".
            line = ",".join(["%.9g" if isinstance(v, float) else "%s"
                             for v in self.rows[0]])
            out.append("\n".join([line] * len(self.rows))
                       % tuple(chain.from_iterable(self.rows)))
        return "\n".join(out) + "\n"

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# ---------------------------------------------------------------------------
# Scenario wiring


def build_pass(scenario: Scenario) -> PassGeometry:
    sec = scenario.values["pass"]
    if sec["geometry"] == "orbital":
        return propagate_pass(
            sec["tx_altitude_km"] * KM, sec["rx_altitude_km"] * KM,
            max_elevation_rad=math.radians(sec["max_elevation_deg"]),
            sample_interval_s=sec["sample_interval_s"],
            horizon_elevation_rad=math.radians(sec["horizon_elevation_deg"]))
    return static_pass(sec["tx_altitude_km"] * KM, sec["rx_altitude_km"] * KM,
                       math.radians(sec["static_zenith_deg"]),
                       duration_s=sec["static_duration_s"],
                       sample_interval_s=sec["sample_interval_s"])


def pointing_levels(scenario: Scenario) -> list[tuple[str, float]]:
    link = scenario.values["link"]
    return [(label, link[f"{label}_sigma_urad"] * URAD)
            for label in link["pointing_levels"]]


def build_budget(scenario: Scenario, sigma_rad: float,
                 divergence_rad: float | None = None) -> LinkBudget:
    link = scenario.values["link"]
    return LinkBudget(
        wavelength=link["wavelength_nm"] * NM,
        divergence_full=divergence_rad if divergence_rad is not None
        else link["divergence_urad"] * URAD,
        tx_aperture=link["tx_aperture_cm"] * CM,
        rx_aperture=link["rx_aperture_cm"] * CM,
        pointing_sigma=sigma_rad,
        eta_tx=link["eta_tx"], eta_rx=link["eta_rx"],
        eta_det=link["eta_det"], eta_atm=link["eta_atm"])


def build_noise(scenario: Scenario) -> NoiseEnvironment:
    noise = scenario.values["noise"]
    return NoiseEnvironment(
        spectral_radiance=noise["radiance_w_m2_nm_sr"],
        fov=noise["fov_sr"],
        filter_bandwidth=noise["filter_nm"],
        gate_time=noise["gate_ns"] * NS,
        dark_count_rate=noise["dark_hz"])


def build_security(scenario: Scenario) -> SecurityParams:
    from .finitekey import SecurityParams
    # The section's keys are the dataclass's fields by name.
    return SecurityParams(**scenario.values["security"])


def build_bounds_box(scenario: Scenario) -> BoundsBox:
    from .finitekey import BoundsBox
    opt = scenario.values["optimizer"]
    return BoundsBox(**{name: (opt[f"{name}_min"], opt[f"{name}_max"])
                        for name in ("mu1", "mu2", "px", "p1", "p2")})


def build_turbulence_profile(scenario: Scenario) -> TurbulenceProfile:
    from .atmosphere import TurbulenceProfile
    turb = scenario.values["turbulence"]
    if turb["slew_mode"] == "pass_peak":
        slew = build_pass(scenario).peak_slew_rad_s
    else:
        slew = turb["slew_rad_s"]
    return TurbulenceProfile(
        ground_cn2=turb["ground_cn2"],
        rms_upper_wind=turb["rms_wind_ms"],
        ground_wind=turb["ground_wind_ms"],
        slew_rate=slew)


def _report(scenario: Scenario, study: str, columns: dict[str, np.ndarray | list],
            warns: Sequence[str] = ()) -> StudyReport:
    """Report ``columns`` in order: name -> finite float array, or list of int or str."""
    for name, cells in columns.items():
        if isinstance(cells, np.ndarray) and not np.isfinite(cells).all():
            raise StudyNumericalError(f"{study} study produced a non-finite {name}")
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()])
    return StudyReport(study=study, digest=scenario.digest, columns=tuple(columns),
                       rows=tuple(rows), warnings=tuple(warns),
                       config_lines=tuple(scenario.config_lines()))


# ---------------------------------------------------------------------------
# Studies


def run_pass(scenario: Scenario) -> StudyReport:
    """Pass geometry and per-sample system loss for the first PE level."""
    _, sigma = pointing_levels(scenario)[0]
    geo = build_pass(scenario)
    try:
        loss_db = system_loss(build_budget(scenario, sigma), geo.range_m).db
    except (ValueError, ArithmeticError) as exc:
        raise StudyNumericalError(f"pass study failed: {exc}") from exc
    return _report(scenario, "pass", {
        "t_s": geo.t_s, "elevation_deg": np.degrees(geo.elevation_rad),
        "range_km": geo.range_m / KM, "slew_rad_s": geo.slew_rad_s, "eta_sys_db": loss_db})


@contextmanager
def _failure_at(label: str, dt_half: float):
    """Re-raise ValueError and ArithmeticError as the failure of one skl window."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise StudyNumericalError(
            f"skl study failed at pe={label} dt_s={dt_half}: {exc}") from exc


def run_skl(scenario: Scenario, threads: int = 1) -> StudyReport:
    """Optimised secret-key length per window half-width and PE level.

    All windows are searched together in a few array kernel calls, each
    PE level's from one grid on its widest window; ``threads`` has no effect.
    """
    from .finitekey import AcquisitionWindow, optimize_windows
    pass_geometry = build_pass(scenario)
    env = build_noise(scenario)
    proto = scenario.values["protocol"]
    search = (build_security(scenario), build_bounds_box(scenario), proto["mu3"],
              proto["source_rate_mhz"] * MHZ)
    dt_values = scenario.values["skl"]["dt_values_s"]

    cases, levels = [], []
    for label, sigma in pointing_levels(scenario):
        # One (n, 3) array per level, from which each of its windows is cut.
        link = np.array(link_timeseries(pass_geometry, build_budget(scenario, sigma), env))
        levels.append([])
        for dt_half in dt_values:
            with _failure_at(label, dt_half):
                levels[-1].append(AcquisitionWindow(link, dt_half))
            cases.append((label, dt_half))
    try:
        found = optimize_windows(levels, *search)
    except (ValueError, ArithmeticError) as exc:
        # Name the first window that fails alone.  Its search alone is not its
        # part of the stacked one (a level shares seeds), so else report that.
        for (label, dt_half), window in zip(cases, chain.from_iterable(levels)):
            with _failure_at(label, dt_half):
                optimize_windows([[window]], *search)
        raise StudyNumericalError(f"skl study failed: {exc}") from exc
    (labels, dts), (params, results) = zip(*cases), zip(*found)
    return _report(scenario, "skl", {
        "dt_s": np.array(dts), "pe_label": list(labels), "skl_bits": [r.skl for r in results],
        "qber": np.array([r.qber_key_basis for r in results]),
        "phase_err": np.array([r.phase_error_bound for r in results]),
        **{name: np.array([getattr(p, name) for p in params])
           for name in ("mu1", "mu2", "px", "p1", "p2")}})


def run_fidelity(scenario: Scenario) -> StudyReport:
    """Entanglement fidelity vs background radiance, PE level, divergence."""
    sec_pass = scenario.values["pass"]
    link = scenario.values["link"]
    ent = scenario.values["entanglement"]
    fid = scenario.values["fidelity"]
    if sec_pass["geometry"] != "static":
        raise StudyNumericalError("fidelity study requires [pass] geometry = static")
    range_m = short_range_path(math.radians(sec_pass["static_zenith_deg"]),
                               sec_pass["tx_altitude_km"] * KM,
                               sec_pass["rx_altitude_km"] * KM)
    env = build_noise(scenario)
    grid = np.logspace(math.log10(fid["radiance_min_w_m2_nm_sr"]),
                       math.log10(fid["radiance_max_w_m2_nm_sr"]),
                       fid["radiance_points"])
    divergences = (link["divergence_urad"] * URAD, link["compare_divergence_urad"] * URAD)
    cases = [(label, sigma, d) for label, sigma in pointing_levels(scenario) for d in divergences]
    sweeps = []
    for label, sigma, divergence in cases:
        budget = build_budget(scenario, sigma, divergence_rad=divergence)
        try:
            sweeps.append(fidelity_sweep(budget, range_m, env, ent["pair_mean"], grid))
        except (ValueError, ArithmeticError) as exc:
            raise StudyNumericalError(
                f"fidelity study failed at pe={label} divergence={divergence}: {exc}") from exc
    q, fidelity = (np.concatenate(arrays) for arrays in zip(*sweeps))
    # Both arms are alike, so the one q fills both columns.
    return _report(scenario, "fidelity", {
        "radiance": np.tile(grid, len(cases)),
        "pe_label": [label for label, _, _ in cases for _ in range(len(grid))],
        "divergence_rad": np.repeat([d for *_, d in cases], len(grid)),
        "fidelity": fidelity, "q_a": q, "q_b": q})


def run_turbulence(scenario: Scenario) -> StudyReport:
    """Greenwood frequency, Fried length and SI on a zenith x wavelength
    mesh: one array evaluation, and so one height integral, per metric."""
    from .atmosphere import SlantPath, fried_r0, greenwood_frequency, scintillation_index
    turb = scenario.values["turbulence"]
    sec_pass = scenario.values["pass"]
    profile = build_turbulence_profile(scenario)
    h_cap = turb["h_cap_km"] * KM
    zen_deg, wl_nm = np.meshgrid(
        np.linspace(turb["zenith_min_deg"], turb["zenith_max_deg"], turb["zenith_points"]),
        turb["wavelengths_nm"], indexing="ij")
    path = SlantPath(np.radians(zen_deg), sec_pass["rx_altitude_km"] * KM,
                     sec_pass["tx_altitude_km"] * KM, wl_nm * NM)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # Reported once, below, as a line of the report.
            warnings.filterwarnings("ignore", "scintillation index")
            f_g = greenwood_frequency(profile, path, h_cap_m=h_cap)
            r0 = fried_r0(profile, path, h_cap_m=h_cap)
            si = scintillation_index(profile, path, h_cap_m=h_cap)
    except (ValueError, ArithmeticError) as exc:
        raise StudyNumericalError(
            f"turbulence study failed for pass.rx_altitude_km = {sec_pass['rx_altitude_km']:.6g}"
            f" and turbulence.h_cap_km = {turb['h_cap_km']:.6g}: {exc}") from exc

    names = ("zenith_deg", "wavelength_nm", "greenwood_hz", "fried_m", "si")
    columns = dict(zip(names, (a.ravel() for a in (zen_deg, wl_nm, f_g, r0, si))))
    warns = [f"scintillation index leaves the weak-fluctuation regime "
             f"from zenith_deg={zen_deg.flat[i]:.6g} wavelength_nm={wl_nm.flat[i]:.6g}"
             for i in np.flatnonzero(columns["si"] >= 1.0)[:1]]
    return _report(scenario, "turbulence", columns, warns)


STUDIES = {
    "pass": run_pass,
    "skl": run_skl,
    "fidelity": run_fidelity,
    "turbulence": run_turbulence,
}

PLOT_RECIPES = {
    "pass": AxesSpec(
        x="t_s", ys=("elevation_deg", "range_km"),
        title="Pass geometry over the culmination window",
        x_label="time from culmination (s)",
        y_label="elevation (deg) / range (km)"),
    "skl": AxesSpec(
        x="dt_s", ys=("skl_bits",), series_by="pe_label",
        title="Secret-key length vs acquisition half-window",
        x_label="half-window (s)", y_label="secret-key length (bits)"),
    "fidelity": AxesSpec(
        x="radiance", ys=("fidelity",),
        series_by=("pe_label", "divergence_rad"), x_log=True,
        title="Entanglement fidelity vs background radiance",
        x_label="spectral radiance (W m^-2 nm^-1 sr^-1)", y_label="fidelity"),
    "turbulence": AxesSpec(
        x="zenith_deg", ys=("greenwood_hz", "fried_m"),
        series_by="wavelength_nm", y_log=True, hlines=(1500.0,),
        title="Adaptive-optics metrics vs zenith angle",
        x_label="zenith angle (deg)",
        y_label="Greenwood frequency (Hz) / Fried length (m)"),
}


def run_study(study: str, scenario: Scenario, threads: int = 1) -> StudyReport:
    """Run one study; ``threads`` is accepted and has no effect."""
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}; expected one of {sorted(STUDIES)}")
    return STUDIES[study](scenario)
