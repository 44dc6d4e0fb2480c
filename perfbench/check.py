"""Output checker for the benchmark's study runs.

    python3 perfbench/check.py MANIFEST.json

The manifest lists jobs (see ``gen.Job``) and, for each, the CSV, SVG and
full-precision rows one run of it wrote.  The checker prints one JSON
object, ``{"problems": {job: [...]}, "rows": {job: n}}``; a job with no
problems passed.  It checks:

- the CSV header and the row count the scenario implies;
- physical invariants: fidelity in [0.25, 1] and non-increasing in
  radiance, Fried length scaling as wavelength^1.2 (Greenwood frequency
  as wavelength^-1.2), integer ``skl_bits`` >= 0 and ``qber`` in [0, 0.5];
- each ``skl`` row re-evaluated at full precision through the scalar
  oracle ``skl(simulate_tallies(...))``, which must give the same bits;
- on a bundled recipe, criterion 1's SKL bands.

Byte identity of repeated runs is compared by the caller, which holds
every copy of the output.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

COLUMNS = {
    "pass": ("t_s", "elevation_deg", "range_km", "slew_rad_s", "eta_sys_db"),
    "skl": ("dt_s", "pe_label", "skl_bits", "qber", "phase_err",
            "mu1", "mu2", "px", "p1", "p2"),
    "fidelity": ("radiance", "pe_label", "divergence_rad", "fidelity", "q_a", "q_b"),
    "turbulence": ("zenith_deg", "wavelength_nm", "greenwood_hz", "fried_m", "si"),
}
TEXT_COLUMNS = {"pe_label"}


def parse_csv(text: str, study: str) -> tuple[list[list], list[str]]:
    """Data rows of a report, with text cells kept and numbers parsed."""
    problems = []
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if not any(line.startswith("# digest sha256:") for line in meta):
        problems.append("CSV metadata has no digest line")
    if not body or tuple(body[0].split(",")) != COLUMNS[study]:
        problems.append(f"CSV header is {body[0] if body else None!r}, "
                        f"expected {','.join(COLUMNS[study])}")
        return [], problems
    rows = []
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS[study]):
            problems.append(f"CSV row has {len(cells)} cells: {line!r}")
            continue
        try:
            rows.append([c if col in TEXT_COLUMNS else float(c)
                         for col, c in zip(COLUMNS[study], cells)])
        except ValueError:
            problems.append(f"CSV row has a non-numeric cell: {line!r}")
    return rows, problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_pass(rows: list[list], expect: dict, rel: float) -> list[str]:
    problems = []
    if len(rows) < 3 or len(rows) % 2 == 0:
        return [f"pass has {len(rows)} samples; expected an odd count >= 3"]
    t = [r[0] for r in rows]
    step = expect["interval_s"]
    if not _close(t[0], -t[-1], 1e-9) or any(
            not _close(b - a, step, 1e-6) for a, b in zip(t, t[1:])):
        problems.append(f"pass times are not symmetric steps of {step} s")
    elevations = [r[1] for r in rows]
    if min(elevations) < expect["horizon_deg"] - 1e-6 \
            or max(elevations) > expect["max_elevation_deg"] + 1e-6:
        problems.append("pass elevation leaves [horizon, max elevation]")
    middle = rows[len(rows) // 2]
    if abs(middle[1] - expect["max_elevation_deg"]) > 1e-4:
        problems.append(f"elevation at t=0 is {middle[1]}, expected "
                        f"{expect['max_elevation_deg']}")
    if any(not (r[2] > 0 and r[3] >= 0 and math.isfinite(r[4]) and r[4] > 0)
           for r in rows):
        problems.append("pass has a non-positive range or loss, or negative slew")
    return problems


def check_fidelity(rows: list[list], expect: dict, rel: float) -> list[str]:
    problems = []
    series: dict = {}
    for radiance, label, divergence, fid, _, _ in rows:
        if not 0.25 <= fid <= 1.0:
            problems.append(f"fidelity {fid} outside [0.25, 1]")
        series.setdefault((label, divergence), []).append((radiance, fid))
    if len(series) != 2 * len(expect["levels"]):
        problems.append(f"{len(series)} fidelity series, expected "
                        f"{2 * len(expect['levels'])}")
    for key, points in series.items():
        if any(b[0] <= a[0] for a, b in zip(points, points[1:])):
            problems.append(f"radiance not increasing in series {key}")
        if any(b[1] > a[1] for a, b in zip(points, points[1:])):
            problems.append(f"fidelity increases with radiance in series {key}")
    return problems


def check_turbulence(rows: list[list], expect: dict, rel: float) -> list[str]:
    problems = []
    wavelengths = expect["wavelengths"]
    per_zenith = len(wavelengths)
    for start in range(0, len(rows) - per_zenith + 1, per_zenith):
        group = rows[start:start + per_zenith]
        if any(not _close(r[1], wl, 1e-6) for r, wl in zip(group, wavelengths)) \
                or len({r[0] for r in group}) != 1:
            problems.append(f"rows {start}..{start + per_zenith - 1} are not "
                            "one zenith at each expected wavelength")
            continue
        base = group[0]
        for r in group[1:]:
            ratio = r[1] / base[1]
            if not _close(r[3] / base[3], ratio ** 1.2, rel):
                problems.append(f"fried_m does not scale as wavelength^1.2 at "
                                f"zenith {r[0]}")
            if not _close(r[2] / base[2], ratio ** -1.2, rel):
                problems.append(f"greenwood_hz does not scale as wavelength^-1.2 "
                                f"at zenith {r[0]}")
    if any(not (r[2] > 0 and r[3] > 0 and r[4] >= 0) for r in rows):
        problems.append("turbulence has a non-positive metric")
    return problems


def check_skl(rows: list[list], expect: dict, rel: float, scenario: str,
              bands: bool) -> list[str]:
    problems = []
    expected_keys = [(dt, level) for level in expect["levels"]
                     for dt in expect["dt_values"]]
    keys = [(r[0], r[1]) for r in rows]
    if keys != expected_keys:
        problems.append("skl rows are not the expected (dt_s, pe_label) sequence")
        return problems
    for r in rows:
        if not (float(r[2]).is_integer() and r[2] >= 0):
            problems.append(f"skl_bits {r[2]} is not an integer >= 0")
        if not 0.0 <= r[3] <= 0.5:
            problems.append(f"qber {r[3]} outside [0, 0.5]")
    if not problems:
        problems += _reevaluate_skl(rows, scenario)
    if bands and not problems:
        table: dict = {}
        for dt, level, bits, *_ in rows:
            table.setdefault(level, {})[dt] = bits
        ok = 3e5 <= table["weak"][100.0] <= 9e5
        ok &= all(v < 2e5 for level in ("moderate", "strong")
                  for v in table[level].values())
        ok &= all(table["weak"][dt] > table["moderate"][dt] > table["strong"][dt]
                  for dt in table["weak"] if dt >= 20.0)
        if not ok:
            problems.append("criterion 1 SKL bands do not hold on the bundled recipe")
    return problems


def _reevaluate_skl(rows: list[list], scenario_path: str) -> list[str]:
    """Re-derive every row's bits through the scalar finite-key oracle."""
    from skyqlink.channel import link_timeseries
    from skyqlink.finitekey import ProtocolParams, simulate_tallies, skl
    from skyqlink.scenario import MHZ, parse_scenario
    from skyqlink.studies import (build_budget, build_noise, build_pass,
                                  build_security, pointing_levels)

    scenario = parse_scenario(scenario_path)
    geometry = build_pass(scenario)
    env = build_noise(scenario)
    security = build_security(scenario)
    proto = scenario.values["protocol"]
    links = {label: link_timeseries(geometry, build_budget(scenario, sigma), env)
             for label, sigma in pointing_levels(scenario)}
    problems = []
    for dt, level, bits, _, _, mu1, mu2, px, p1, p2 in rows:
        params = ProtocolParams(mu1=mu1, mu2=mu2, mu3=proto["mu3"], p1=p1, p2=p2,
                                p3=1.0 - p1 - p2, px=px,
                                source_rate=proto["source_rate_mhz"] * MHZ)
        again = skl(simulate_tallies(params, links[level], dt, security),
                    params, security).skl
        if again != int(bits):
            problems.append(f"skl row dt={dt} pe={level}: report says {int(bits)} "
                            f"bits, the oracle gives {again}")
    return problems


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag!r}"]
    return []


def check_output(job: dict, csv_text: str | None, svg_text: str | None,
                 full_rows: list[list] | None) -> tuple[list[str], int]:
    """Problems found in one run's output, and its data row count.

    ``full_rows`` are the report rows at full precision, when the run
    captured them; the checks then use them and the CSV must agree with
    them to its 9 significant digits.  Otherwise the CSV cells are used.
    """
    study = job["study"]
    problems: list[str] = []
    rows = None
    if csv_text is not None:
        rows, problems = parse_csv(csv_text, study)
    elif job["command"] != "plot":
        problems.append("the run wrote no CSV")
    if full_rows is not None:
        if rows is not None and (len(rows) != len(full_rows) or any(
                (a != b) if isinstance(a, str) else not _close(a, b, 1e-8)
                for row, full in zip(rows, full_rows) for a, b in zip(row, full))):
            problems.append("CSV cells disagree with the report's rows")
        rows, rel = full_rows, 1e-9
    else:
        rel = 1e-7
    if rows is None:
        return problems or ["the run left no rows to check"], 0
    expect = job["expect"]
    if expect.get("rows") is not None and len(rows) != expect["rows"]:
        problems.append(f"{len(rows)} data rows, expected {expect['rows']}")
    elif not problems:
        if study == "skl":
            problems += check_skl(rows, expect, rel, job["scenario"],
                                  bands=job["unperturbed"])
        else:
            problems += {"pass": check_pass, "fidelity": check_fidelity,
                         "turbulence": check_turbulence}[study](rows, expect, rel)
    if svg_text is None:
        problems.append("the run wrote no SVG")
    else:
        problems += check_svg(svg_text)
    return problems, len(rows)


def _read(path: str | None) -> str | None:
    if path is None or not Path(path).is_file():
        return None
    return Path(path).read_text(encoding="utf-8")


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    problems, rows = {}, {}
    for item in manifest["outputs"]:
        job = item["job"]
        raw_rows = _read(item.get("rows"))
        full_rows = json.loads(raw_rows) if raw_rows is not None else None
        found, count = check_output(job, _read(item.get("csv")),
                                    _read(item.get("svg")), full_rows)
        problems[job["name"]] = found
        rows[job["name"]] = count
    print(json.dumps({"problems": problems, "rows": rows}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
