"""Seeded scenario generator for the benchmark workloads.

Every generated scenario is one of the program's bundled recipes
(``src/skyqlink/scenarios/*.scn``) with documented values perturbed
within plausible ranges.  Seed 0 perturbs nothing: each of its files is
a bundled recipe byte for byte (``api_sweep`` adds larger grid sizes of
the same recipes).  The same seed always gives the same files.

Grid sizes never depend on the seed.  A workload's list of jobs has the
same studies and grid sizes for every seed, so the amount of work in a
run stays the same and only the physics inputs and the job order move.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

RECIPE_DIR = Path("src") / "skyqlink" / "scenarios"
WORKLOADS = ("skl_pass", "cold_cli", "api_sweep")

# Grid sizes of api_sweep, one job per entry; None keeps the recipe's size.
# Five sizes per study make an odd job count, so the median and the tail
# percentiles fall inside one job's samples rather than between two.
SWEEP_SIZES = {
    "pass": ("pass", "sample_interval_s", (None, 0.8, 0.7, 0.6, 0.55)),
    "fidelity": ("fidelity", "radiance_points", (None, 60, 100, 150, 200)),
    "turbulence": ("turbulence", "zenith_points", (None, 45, 60, 75, 90)),
}
RECIPE_OF = {"pass": "fig2_leo_haps", "skl": "fig2_leo_haps",
             "fidelity": "fig3_haps_laps", "turbulence": "fig4_leo_ground"}


@dataclass(frozen=True)
class Job:
    """One study invocation: what to run and what its output must look like."""

    name: str
    study: str
    command: str          # CLI subcommand: the study name or "plot"
    scenario: str         # path of the generated .scn file
    unperturbed: bool     # the file is a bundled recipe byte for byte
    expect: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sigmas(rng: random.Random) -> dict:
    return {("link", "weak_sigma_urad"): rng.uniform(3.0, 3.6),
            ("link", "moderate_sigma_urad"): rng.uniform(9.0, 11.0),
            ("link", "strong_sigma_urad"): rng.uniform(18.0, 22.0)}


def _perturb_fig2(rng: random.Random) -> dict:
    """LEO to HAPS: pointing jitter, pass height, sky, wavelength, optics."""
    return {**_sigmas(rng),
            ("pass", "max_elevation_deg"): rng.uniform(80.0, 90.0),
            ("noise", "radiance_w_m2_nm_sr"): _loguniform(rng, 5e-7, 2e-6),
            ("link", "wavelength_nm"): rng.uniform(790.0, 830.0),
            ("security", "e_intrinsic"): rng.uniform(0.004, 0.006)}


def _perturb_fig3(rng: random.Random) -> dict:
    """HAPS to LAPS: pointing jitter, zenith, radiance range, pair mean."""
    return {**_sigmas(rng),
            ("pass", "static_zenith_deg"): rng.uniform(35.0, 45.0),
            ("fidelity", "radiance_min_w_m2_nm_sr"): _loguniform(rng, 5e-8, 2e-7),
            ("fidelity", "radiance_max_w_m2_nm_sr"): _loguniform(rng, 5e-2, 2e-1),
            ("entanglement", "pair_mean"): rng.uniform(0.08, 0.12),
            ("link", "wavelength_nm"): rng.uniform(790.0, 830.0)}


def _perturb_fig4(rng: random.Random) -> dict:
    """LEO to ground: Cn2, winds, zenith range, the two wavelengths."""
    return {("turbulence", "ground_cn2"): _loguniform(rng, 1.2e-14, 2.4e-14),
            ("turbulence", "rms_wind_ms"): rng.uniform(75.0, 95.0),
            ("turbulence", "ground_wind_ms"): rng.uniform(3.0, 7.0),
            ("turbulence", "zenith_max_deg"): rng.uniform(75.0, 85.0),
            ("turbulence", "wavelengths_nm"): (rng.uniform(780.0, 850.0),
                                               rng.uniform(1530.0, 1570.0)),
            ("pass", "max_elevation_deg"): rng.uniform(85.0, 90.0)}


PERTURB = {"fig2_leo_haps": _perturb_fig2, "fig3_haps_laps": _perturb_fig3,
           "fig4_leo_ground": _perturb_fig4}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def apply_overrides(text: str, overrides: dict) -> str:
    """Set ``(section, key) -> value`` in scenario text.

    A key already in its section has its line replaced; a missing key is
    appended in a reopened ``[section]`` block at the end of the file.
    """
    out, done, section = [], set(), None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body:
            key = body.split("=", 1)[0].strip()
            if (section, key) in overrides:
                line = f"{key} = {_format(overrides[(section, key)])}"
                done.add((section, key))
        out.append(line)
    for (sec, key), value in overrides.items():
        if (sec, key) not in done:
            out += ["", f"[{sec}]", f"{key} = {_format(value)}"]
    return "\n".join(out) + "\n"


def read_values(text: str) -> dict:
    """Raw ``section -> key -> value`` strings of scenario text."""
    values: dict = {}
    section = None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            values.setdefault(section, {})
        elif "=" in body and section is not None:
            key, raw = (part.strip() for part in body.split("=", 1))
            values[section][key] = raw
    return values


def _need(values: dict, section: str, key: str) -> str:
    try:
        return values[section][key]
    except KeyError:
        raise ValueError(f"generated scenario lacks {section}.{key}, "
                         "which the output checker needs") from None


def _floats(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


def _names(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def expectations(study: str, text: str) -> dict:
    """Output shape implied by the scenario text, found without the program."""
    values = read_values(text)
    if study == "skl":
        levels = _names(_need(values, "link", "pointing_levels"))
        dts = _floats(_need(values, "skl", "dt_values_s"))
        return {"levels": levels, "dt_values": dts, "rows": len(levels) * len(dts)}
    if study == "fidelity":
        levels = _names(_need(values, "link", "pointing_levels"))
        points = int(float(_need(values, "fidelity", "radiance_points")))
        return {"levels": levels, "points": points, "rows": len(levels) * 2 * points}
    if study == "turbulence":
        points = int(float(_need(values, "turbulence", "zenith_points")))
        wavelengths = _floats(_need(values, "turbulence", "wavelengths_nm"))
        return {"zenith_points": points, "wavelengths": wavelengths,
                "rows": points * len(wavelengths)}
    if study == "pass":
        return {"interval_s": float(_need(values, "pass", "sample_interval_s")),
                "max_elevation_deg": float(_need(values, "pass", "max_elevation_deg")),
                "horizon_deg": float(_need(values, "pass", "horizon_elevation_deg")),
                "rows": None}
    raise ValueError(f"unknown study {study!r}")


class _Writer:
    """Writes one workload's scenario files and collects its jobs."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.jobs: list[Job] = []

    def add(self, study: str, command: str = "", extra: dict | None = None,
            perturb: bool = True) -> Job:
        recipe = RECIPE_OF[study]
        index = len(self.jobs)
        text = (self.root / RECIPE_DIR / f"{recipe}.scn").read_text(encoding="utf-8")
        overrides = {}
        if perturb and self.seed != 0:
            rng = random.Random(f"skyqlink-bench:{self.workload}:{self.seed}:{index}")
            overrides.update(PERTURB[recipe](rng))
        overrides.update(extra or {})
        if overrides:
            text = apply_overrides(text, overrides)
        name = f"{index:02d}-{command or study}-{study}"
        path = self.work / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        job = Job(name=name, study=study, command=command or study,
                  scenario=str(path), unperturbed=not overrides,
                  expect=expectations(study, text))
        self.jobs.append(job)
        return job


def generate(workload: str, seed: int, root: Path, work: Path) -> tuple[list[Job], list[Job]]:
    """Write the workload's scenarios under ``work``.

    Returns the measured jobs, in the order the benchmark cycles through
    them, and the extra check-only jobs (the small ``skl`` repeat of
    ``skl_pass``).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    writer = _Writer(root, work, workload, seed)
    checks: list[Job] = []
    if workload == "skl_pass":
        writer.add("skl")
        # Small repeat for the byte-identity check: one PE level, one window.
        checks.append(writer.add("skl", extra={("link", "pointing_levels"): "weak",
                                               ("skl", "dt_values_s"): 10.0}))
        jobs = writer.jobs[:1]
    elif workload == "cold_cli":
        for study in ("pass", "fidelity", "turbulence"):
            writer.add(study)
        writer.add("fidelity", command="plot")
        jobs = writer.jobs
    else:
        for study, (section, key, sizes) in SWEEP_SIZES.items():
            for size in sizes:
                writer.add(study, extra=None if size is None else {(section, key): size})
        jobs = list(writer.jobs)
        if seed != 0:
            random.Random(f"skyqlink-bench:{workload}:{seed}:order").shuffle(jobs)
    return jobs, checks
