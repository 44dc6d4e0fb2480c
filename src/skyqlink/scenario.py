"""Scenario configuration files.

Flat sectioned key-value text: ``[section]`` headers, ``key = value``
pairs, ``#`` comments, with SI-scale suffixes carried in the key names
(``_km``, ``_urad``, ``_mhz``...).  Unknown sections or keys are errors,
not warnings; every key has a default so an empty file resolves to the
default LEO-to-HAPS scenario.  :data:`SCHEMA` gives each key its default,
whose type is the key's type, and its check; each ``X_min`` must lie
below its ``X_max`` twin.  A resolved scenario carries a stable content
digest and can be serialised into report metadata lines that parse back
into an identical scenario.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple


class ScenarioError(ValueError):
    """Configuration problem, with 1-based line/column when known."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{where}")


def _positive(v: float) -> str | None:
    return None if v > 0 else "must be > 0"


def _non_negative(v: float) -> str | None:
    return None if v >= 0 else "must be >= 0"


def _fraction(v: float) -> str | None:
    return None if 0.0 < v <= 1.0 else "must be in (0, 1]"


def _prob_open(v: float) -> str | None:
    return None if 0.0 < v < 1.0 else "must be in (0, 1)"


def _at_most(cap: float, low: Callable[[float], str | None]
             ) -> Callable[[float], str | None]:
    def check(v: float) -> str | None:
        return low(v) or (None if v <= cap else f"must be <= {cap:g}")
    return check


def _security_budget(v: float) -> str | None:
    # A smaller eps_sec overflows (21 / eps_sec) * (21 / eps_sec) in the phase-error bound.
    return _prob_open(v) or (None if v >= 1e-150 else "must be >= 1e-150")


def _intensity(v: float) -> str | None:
    # Smaller intensities underflow mu1 * mu1 and the decoy-bound denominator.
    return None if v >= 1e-6 else "must be >= 1e-06"


# Grid sizes: a sweep needs two points, and 1e5 bounds its memory and time.
_count = _at_most(1e5, lambda v: None if v >= 2 else "need >= 2")
# The turbulence study's zenith x wavelength mesh, like a pass, holds at most 10^6 points.
_MAX_MESH = 10**6


def _angle_deg(v: float) -> str | None:
    return None if 0.0 <= v <= 90.0 else "must be in [0, 90] degrees"


def _below_90_deg(v: float) -> str | None:
    # At 90 degrees a zenith path lies along the horizon, so its slant range and
    # air mass diverge, and a horizon cut at the zenith leaves no pass to sample.
    return _angle_deg(v) or (None if v < 90.0 else "must be < 90")


def _choice(*allowed: str) -> Callable[[str], str | None]:
    def check(v: str) -> str | None:
        return None if v in allowed else f"must be one of {allowed}"
    return check


def _level_list(v: tuple[str, ...]) -> str | None:
    # Each level is named by its [link] <level>_sigma_urad key.
    allowed = [k.removesuffix("_sigma_urad") for k in SCHEMA["link"] if k.endswith("_sigma_urad")]
    bad = [x for x in v if x not in allowed]
    if bad:
        return f"unknown pointing level(s) {bad}; allowed: {', '.join(allowed)}"
    if not v:
        return "must list at least one pointing level"
    return None if len(set(v)) == len(v) else "must list each pointing level once"


def _float_list_increasing(v: tuple[float, ...]) -> str | None:
    if not v:
        return "must list at least one value"
    if any(x <= 0 for x in v):
        return "values must be > 0"
    if any(b <= a for a, b in zip(v, v[1:])):
        return "values must be strictly increasing"
    return None


def _window_list(v: tuple[float, ...]) -> str | None:
    # The skl search's memory grows with the square of its window count.
    return _float_list_increasing(v) or (None if len(v) <= 100 else "must list <= 100 values")


class _Key(NamedTuple):
    default: Any
    check: Callable[[Any], str | None]


SCHEMA: dict[str, dict[str, _Key]] = {
    "pass": {
        "geometry": _Key("orbital", _choice("orbital", "static")),
        "tx_altitude_km": _Key(535.0, _at_most(1e5, _positive)),
        "rx_altitude_km": _Key(20.0, _at_most(1e5, _non_negative)),
        "max_elevation_deg": _Key(90.0, _angle_deg),
        "horizon_elevation_deg": _Key(10.0, _below_90_deg),
        "sample_interval_s": _Key(1.0, _positive),
        "static_zenith_deg": _Key(40.0, _below_90_deg),
        "static_duration_s": _Key(60.0, _positive),
    },
    "link": {
        "wavelength_nm": _Key(810.0, _positive),
        "divergence_urad": _Key(33.0, _positive),
        "compare_divergence_urad": _Key(1000.0, _positive),
        "tx_aperture_cm": _Key(9.0, _positive),
        "rx_aperture_cm": _Key(35.0, _positive),
        "pointing_levels": _Key(("weak",), _level_list),
        # Only the weak sigma is a quoted hardware figure (a 3.3 urad fine-tracking
        # residual); moderate and strong stand for coarse-only and unstabilised platforms.
        "weak_sigma_urad": _Key(3.3, _non_negative),
        "moderate_sigma_urad": _Key(10.0, _non_negative),
        "strong_sigma_urad": _Key(20.0, _non_negative),
        "eta_tx": _Key(0.8, _fraction),
        "eta_rx": _Key(0.8, _fraction),
        "eta_det": _Key(0.5, _fraction),
        "eta_atm": _Key(1.0, _fraction),
    },
    "noise": {
        "radiance_w_m2_nm_sr": _Key(0.0, _non_negative),
        "fov_sr": _Key(1e-8, _non_negative),
        "filter_nm": _Key(1.0, _non_negative),
        "gate_ns": _Key(1.0, _positive),
        "dark_hz": _Key(200.0, _non_negative),
    },
    "protocol": {
        "source_rate_mhz": _Key(200.0, _positive),
        "mu3": _Key(0.0, _non_negative),
    },
    "optimizer": {
        "mu1_min": _Key(0.3, _intensity),
        "mu1_max": _Key(1.0, _intensity),
        "mu2_min": _Key(0.05, _intensity),
        "mu2_max": _Key(0.35, _intensity),
        "px_min": _Key(0.5, _prob_open),
        "px_max": _Key(0.9, _prob_open),
        "p1_min": _Key(0.3, _prob_open),
        "p1_max": _Key(0.8, _prob_open),
        "p2_min": _Key(0.1, _prob_open),
        "p2_max": _Key(0.5, _prob_open),
    },
    "security": {
        "eps_sec": _Key(1e-9, _security_budget),
        "eps_cor": _Key(1e-15, _prob_open),
        "f_ec": _Key(1.16, lambda v: None if v >= 1.0 else "must be >= 1"),
        "e_intrinsic": _Key(0.01, lambda v: None if 0.0 <= v < 0.5 else "must be in [0, 0.5)"),
    },
    "skl": {
        "dt_values_s": _Key(tuple(float(x) for x in range(10, 101, 10)), _window_list),
    },
    "entanglement": {
        "pair_mean": _Key(0.1, _positive),
        # Read by no study.  Kept because removing a key changes the digest
        # and the `# config` lines of every report on every scenario.
        "pair_rate_mhz": _Key(10.0, _positive),
    },
    "fidelity": {
        "radiance_min_w_m2_nm_sr": _Key(1e-7, _positive),
        "radiance_max_w_m2_nm_sr": _Key(1e-1, _positive),
        "radiance_points": _Key(25, _count),
    },
    "turbulence": {
        "ground_cn2": _Key(1.7e-14, _at_most(1e-10, _positive)),
        "rms_wind_ms": _Key(21.0, _positive),
        "ground_wind_ms": _Key(5.0, _non_negative),
        "slew_mode": _Key("fixed", _choice("fixed", "pass_peak")),
        "slew_rad_s": _Key(0.0, _non_negative),
        "h_cap_km": _Key(30.0, _positive),
        "zenith_min_deg": _Key(0.0, _angle_deg),
        "zenith_max_deg": _Key(80.0, _below_90_deg),
        "zenith_points": _Key(33, _count),
        "wavelengths_nm": _Key((810.0, 1550.0), _float_list_increasing),
    },
}


def _parse_value(default: Any, raw: str) -> Any:
    """Read ``raw`` as the type of ``default``; a tuple as its items' type, split
    at commas.  Raises ``ValueError``."""
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], part) for part in raw.split(",") if part.strip())
    if isinstance(default, str):
        return raw.strip()
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    if isinstance(default, int):
        if value != int(value):
            raise ValueError("not an integer")
        return int(value)
    return value


def _format_value(value: Any) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Scenario:
    """Resolved configuration: raw file-unit values, frozen into nested mapping
    proxies, plus default tracking; its listing, digest and config lines are cached."""

    values: Mapping[str, Mapping[str, Any]]
    defaulted: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(
            {section: MappingProxyType(dict(keys)) for section, keys in self.values.items()}))

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    @cached_property
    def _listing(self) -> list[tuple[str, str, str]]:
        """``(section, key, formatted value)`` of every resolved key, sorted."""
        return [(section, key, _format_value(value)) for section in sorted(self.values)
                for key, value in sorted(self.values[section].items())]

    @cached_property
    def digest(self) -> str:
        lines = "\n".join(f"{s}.{k}={v}" for s, k, v in self._listing)
        return hashlib.sha256(lines.encode()).hexdigest()

    @cached_property
    def _config_lines(self) -> tuple[str, ...]:
        return tuple(f"{s}.{k} = {v}" + ("  # default" if (s, k) in self.defaulted else "")
                     for s, k, v in self._listing)

    def config_lines(self) -> list[str]:
        """One line per resolved key, defaulted ones marked; round-trips
        through :func:`scenario_from_config_lines`."""
        return list(self._config_lines)


def _validate_cross_keys(values: dict[str, dict[str, Any]]) -> None:
    p = values["pass"]
    if p["tx_altitude_km"] <= p["rx_altitude_km"]:
        raise ScenarioError(
            "pass.tx_altitude_km must exceed pass.rx_altitude_km")
    if p["max_elevation_deg"] < p["horizon_elevation_deg"]:
        raise ScenarioError(
            "pass.max_elevation_deg must be >= pass.horizon_elevation_deg")
    # Each range is an X_min key below its X_max twin in the same section.
    for section, keys in values.items():
        for low in [key for key in keys if "_min" in key]:
            high = low.replace("_min", "_max")
            if keys[low] >= keys[high]:
                raise ScenarioError(f"{section}.{low} must be below {section}.{high}")
    turb = values["turbulence"]
    if turb["zenith_points"] * len(turb["wavelengths_nm"]) > _MAX_MESH:
        raise ScenarioError("turbulence.zenith_points times the number of "
                            f"turbulence.wavelengths_nm must be <= {_MAX_MESH}")


def _resolve(parsed: dict[str, dict[str, Any]]) -> Scenario:
    values: dict[str, dict[str, Any]] = {}
    defaulted = set()
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, spec in keys.items():
            if section in parsed and key in parsed[section]:
                values[section][key] = parsed[section][key]
            else:
                values[section][key] = spec.default
                defaulted.add((section, key))
    _validate_cross_keys(values)
    return Scenario(values=values, defaulted=frozenset(defaulted))


def _set_key(parsed: dict[str, dict[str, Any]], section: str, key: str,
             raw_value: str, line: int, column: int) -> None:
    """Parse and check one ``section.key`` value into ``parsed``."""
    if key not in SCHEMA.get(section, ()):
        raise ScenarioError(f"unknown key '{key}' in section [{section}]",
                            line, column)
    keys = parsed.setdefault(section, {})
    if key in keys:
        raise ScenarioError(f"duplicate key '{key}' in section [{section}]",
                            line, column)
    spec = SCHEMA[section][key]
    try:
        value = _parse_value(spec.default, raw_value)
    except ValueError as exc:
        kind = (f"{type(spec.default[0]).__name__}_list" if isinstance(spec.default, tuple)
                else type(spec.default).__name__)
        raise ScenarioError(f"{section}.{key}: cannot parse {raw_value!r} as {kind}: {exc}",
                            line, column) from exc
    problem = spec.check(value)
    if problem:
        raise ScenarioError(f"{section}.{key} {problem}, got {raw_value}",
                            line, column)
    keys[key] = value


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with diagnostics."""
    parsed: dict[str, dict[str, Any]] = {}
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        column = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError("malformed section header", lineno, column)
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ScenarioError(f"unknown section [{section}]", lineno, column)
            parsed.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ScenarioError("expected 'key = value'", lineno, column)
        if section is None:
            raise ScenarioError("key outside any [section]", lineno, column)
        key, raw_value = (part.strip() for part in stripped.split("=", 1))
        _set_key(parsed, section, key, raw_value, lineno, column)
    return _resolve(parsed)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and resolve a scenario file (UTF-8)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc}") from exc
    return parse_scenario_text(text)


def scenario_from_config_lines(lines: Iterable[str]) -> Scenario:
    """Rebuild a scenario from report-metadata ``section.key = value`` lines.

    Accepts the exact output of :meth:`Scenario.config_lines`, with or
    without the leading ``# config`` prefix emitted in CSV metadata.  Each
    value passes the same parse and checks as in a scenario file.
    """
    parsed: dict[str, dict[str, Any]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            line = line.lstrip("#").strip()
            if line.startswith("config"):
                line = line[len("config"):].strip()
            else:
                continue
        if not line:
            continue
        if line.endswith("# default"):
            # Marked values are the schema defaults; let resolution
            # re-apply them so the defaulted-flag round-trips too.
            continue
        if "=" not in line:
            continue
        dotted, raw_value = (part.strip() for part in line.split("=", 1))
        if "." not in dotted:
            raise ScenarioError(f"expected section.key, got {dotted!r}", lineno)
        _set_key(parsed, *dotted.split(".", 1), raw_value, lineno, 1)
    return _resolve(parsed)


# Unit conversions for the suffix conventions used in scenario keys.
KM = 1e3
CM = 1e-2
NM = 1e-9
URAD = 1e-6
MHZ = 1e6
NS = 1e-9
