"""Study orchestration: CSV schemas, determinism, SVG rendering, CLI."""

import contextlib
import dataclasses
import io
import math
import random
import re
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyqlink import atmosphere, cli, entanglement, studies, svg
from skyqlink.scenario import (
    SCHEMA,
    ScenarioError,
    parse_scenario,
    parse_scenario_text,
    scenario_from_config_lines,
)
from skyqlink.scenarios import bundled_path
from skyqlink.studies import (
    PLOT_RECIPES,
    StudyNumericalError,
    run_fidelity,
    run_pass,
    run_skl,
    run_study,
    run_turbulence,
)
from skyqlink.svg import PALETTE, AxesSpec, render_svg

FIG2 = parse_scenario(bundled_path("fig2_leo_haps"))
FIG3 = parse_scenario(bundled_path("fig3_haps_laps"))
FIG4 = parse_scenario(bundled_path("fig4_leo_ground"))
FIG3_TEXT = bundled_path("fig3_haps_laps").read_text()
FIG4_TEXT = bundled_path("fig4_leo_ground").read_text()

# Small orbital scenario keeping pass-based tests fast.
FAST_PASS = parse_scenario_text(
    "[pass]\nhorizon_elevation_deg = 60\nsample_interval_s = 5\n")


class TestRunPass:
    def test_columns_and_shape(self):
        report = run_pass(FAST_PASS)
        assert report.columns == ("t_s", "elevation_deg", "range_km",
                                  "slew_rad_s", "eta_sys_db")
        assert len(report.rows) >= 3

    def test_geometry_content(self):
        report = run_pass(FAST_PASS)
        mid = report.rows[len(report.rows) // 2]
        assert mid[0] == 0.0
        assert mid[1] == pytest.approx(90.0, abs=1e-6)
        assert mid[2] == pytest.approx(515.0, rel=1e-6)
        db_values = [row[4] for row in report.rows]
        assert min(db_values) == db_values[len(db_values) // 2]


class TestRunFidelity:
    def test_columns_and_grid(self):
        report = run_fidelity(FIG3)
        assert report.columns == ("radiance", "pe_label", "divergence_rad",
                                  "fidelity", "q_a", "q_b")
        # 3 PE levels x 2 divergences x 25 grid points
        assert len(report.rows) == 3 * 2 * 25

    def test_requires_static_geometry(self):
        orbital = parse_scenario_text("[pass]\ngeometry = orbital\n")
        with pytest.raises(StudyNumericalError, match="static"):
            run_fidelity(orbital)

    def test_symmetric_arms(self):
        report = run_fidelity(FIG3)
        for row in report.rows:
            assert row[4] == pytest.approx(row[5], rel=1e-12)

    def test_one_channel_evaluation_per_arm(self, monkeypatch):
        calls = {"system_loss": 0, "background_counts": 0}

        def counted(name):
            fn = getattr(entanglement, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(entanglement, name, counted(name))
        run_fidelity(FIG3)
        # 3 PE levels x 2 divergences; both arms share one evaluation.
        assert calls == {"system_loss": 6, "background_counts": 6}


class TestRunTurbulence:
    def test_columns_and_rows(self):
        report = run_turbulence(FIG4)
        assert report.columns == ("zenith_deg", "wavelength_nm",
                                  "greenwood_hz", "fried_m", "si")
        assert len(report.rows) == 33 * 2

    def test_scaling_law_between_wavelengths(self):
        report = run_turbulence(FIG4)
        expected = (1550.0 / 810.0) ** 1.2
        by_zenith: dict = {}
        for zen, wl, f_g, r0, _ in report.rows:
            by_zenith.setdefault(zen, {})[wl] = (f_g, r0)
        for zen, pair in by_zenith.items():
            f_ratio = pair[810.0][0] / pair[1550.0][0]
            r_ratio = pair[1550.0][1] / pair[810.0][1]
            assert f_ratio == pytest.approx(expected, rel=1e-6)
            assert r_ratio == pytest.approx(expected, rel=1e-6)

    def test_strong_scintillation_warned(self):
        report = run_turbulence(FIG4)
        assert any("weak-fluctuation" in w for w in report.warnings)

    def test_unrelated_warning_is_not_a_scintillation_warning(self, monkeypatch):
        def noisy_fried_r0(*args, **kwargs):
            warnings.warn("unrelated", UserWarning)
            return fried_r0(*args, **kwargs)

        fried_r0 = atmosphere.fried_r0
        monkeypatch.setattr(atmosphere, "fried_r0", noisy_fried_r0)
        with pytest.warns(UserWarning, match="unrelated"):
            report = run_turbulence(parse_scenario_text(""))
        assert not any("scintillation" in w for w in report.warnings)

    def test_one_call_per_metric(self, monkeypatch):
        calls = dict.fromkeys(("fried_r0", "greenwood_frequency",
                               "scintillation_index"), 0)

        def counting(name):
            metric = getattr(atmosphere, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return metric(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(atmosphere, name, counting(name))
        report = run_turbulence(FIG4)
        assert len(report.rows) == 33 * 2
        assert calls == {"fried_r0": 1, "greenwood_frequency": 1,
                         "scintillation_index": 1}

    def test_warning_names_first_strong_row(self):
        report = run_turbulence(FIG4)
        zen, wl = next(row[:2] for row in report.rows if row[4] >= 1.0)
        assert report.warnings == (
            "scintillation index leaves the weak-fluctuation regime "
            f"from zenith_deg={zen:.6g} wavelength_nm={wl:.6g}",)

    def test_non_finite_cell_is_a_numerical_error(self):
        # Past the parser's Cn2 cap, the scintillation index overflows.
        values = {section: dict(keys) for section, keys in FIG4.values.items()}
        values["turbulence"]["ground_cn2"] = 1e300
        scenario = dataclasses.replace(FIG4, values=values)
        with pytest.raises(StudyNumericalError,
                           match="turbulence study produced a non-finite si"):
            run_turbulence(scenario)


class TestReportSerialisation:
    def test_metadata_layout(self):
        report = run_turbulence(FIG4)
        csv_text = report.to_csv()
        lines = csv_text.splitlines()
        assert lines[0].startswith("# skyqlink 0.1.0 study=turbulence")
        assert lines[1].startswith("# digest sha256:")
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "zenith_deg,wavelength_nm,greenwood_hz,fried_m,si"

    def test_metadata_replay_reproduces_report(self):
        report = run_turbulence(FIG4)
        lines = [ln for ln in report.to_csv().splitlines() if ln.startswith("# config")]
        rebuilt_scenario = scenario_from_config_lines(lines)
        rebuilt = run_turbulence(rebuilt_scenario)
        assert rebuilt.to_csv() == report.to_csv()

    def test_deterministic_across_runs_and_threads(self):
        a = run_study("fidelity", FIG3, threads=1).to_csv()
        b = run_study("fidelity", FIG3, threads=8).to_csv()
        assert a == b

    def test_nine_significant_digits(self):
        report = run_pass(FAST_PASS)
        first_data = report.to_csv().splitlines()[-1]
        for cell in first_data.split(",")[2:]:
            mantissa = cell.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 9

    def test_empty_report_is_metadata_and_header(self):
        report = studies.StudyReport("pass", "ab" * 32, ("t_s", "label"), rows=(),
                                     warnings=("w",), config_lines=("[pass]",))
        assert report.to_csv() == ("# skyqlink 0.1.0 study=pass\n"
                                   f"# digest sha256:{'ab' * 32}\n"
                                   "# config [pass]\n# warning w\nt_s,label\n")

    def test_skl_bits_print_as_the_exact_integer(self):
        # One window of some 4.6e9 bits, more digits than "%.9g" prints.
        report = run_skl(parse_scenario_text(
            "[protocol]\nsource_rate_mhz = 1e6\n[skl]\ndt_values_s = 100\n"))
        (bits,) = [row[2] for row in report.rows]
        assert isinstance(bits, int) and bits >= 10**9
        assert report.to_csv().splitlines()[-1].split(",")[2] == str(bits)

    @pytest.mark.parametrize("rows", [
        ((1.0 / 3, "weak", 7, -0.0),
         (5e-324, "100%", -12, 1e-300),
         (1e300, "%s", 0, 123456789.5),
         (-2.5e-7, "a%%b", 2**70, float("inf"))),
        ((0.1, "%d", 1, 2.0),),
    ], ids=["mixed-columns", "one-row"])
    def test_csv_matches_per_cell_formula(self, rows):
        report = studies.StudyReport("pass", "0" * 64, ("x", "label", "n", "y"), rows,
                                     config_lines=("[pass]", "a = 1"))
        assert report.to_csv() == csv_oracle(report)

    @pytest.mark.parametrize("study, scenario", [
        ("pass", FAST_PASS), ("fidelity", FIG3), ("turbulence", FIG4)])
    def test_study_csv_matches_per_cell_formula(self, study, scenario):
        report = run_study(study, scenario)
        assert report.to_csv() == csv_oracle(report)


class TestColumnReports:
    def test_skl_cells_keep_their_types(self):
        report = run_skl(parse_scenario_text(
            "[link]\npointing_levels = weak, strong\n[skl]\ndt_values_s = 10, 20\n"))
        types = [{type(v) for v in column} for column in zip(*report.rows)]
        assert types == [{float}, {str}, {int}] + [{float}] * 7
        assert [row[:2] for row in report.rows] == [
            (10.0, "weak"), (20.0, "weak"), (10.0, "strong"), (20.0, "strong")]
        assert report.to_csv() == csv_oracle(report)

    def test_nan_in_pass_names_its_column(self, monkeypatch):
        real = studies.system_loss

        def with_nan(budget, range_m):
            loss = real(budget, range_m)
            db = loss.db.copy()
            db[len(db) // 2] = np.nan
            return loss._replace(db=db)
        monkeypatch.setattr(studies, "system_loss", with_nan)
        with pytest.raises(StudyNumericalError,
                           match="^pass study produced a non-finite eta_sys_db$"):
            run_pass(FAST_PASS)

    def test_nan_in_fidelity_names_its_column(self, monkeypatch):
        # A NaN q in the last (level, divergence) sweep reaches fidelity, the
        # first column it fills.
        real = entanglement.signal_fraction
        calls = []

        def with_nan(*args):
            q = real(*args)
            calls.append(q)
            if len(calls) == 2 * len(FIG3.get("link", "pointing_levels")):
                q = q.copy()
                q[len(q) // 2] = np.nan
            return q
        monkeypatch.setattr(entanglement, "signal_fraction", with_nan)
        with pytest.raises(StudyNumericalError,
                           match="^fidelity study produced a non-finite fidelity$"):
            run_fidelity(FIG3)


def csv_oracle(report):
    """Per-cell CSV: "{:.9g}" for a float column, ``str`` for any other."""
    cell = ["{:.9g}".format if isinstance(v, float) else str for v in report.rows[0]]
    lines = report.metadata_lines() + [",".join(report.columns)]
    lines += [",".join(f(v) for f, v in zip(cell, row)) for row in report.rows]
    return "\n".join(lines) + "\n"


def scalar_pix(axis, v):
    """The scalar pixel formula, the oracle for the array mapping."""
    t = math.log10(v) if axis.log else v
    frac = (t - axis.lo) / (axis.hi - axis.lo)
    return axis.pix_lo + frac * (axis.pix_hi - axis.pix_lo)


def oracle_marks(rows, spec):
    """Each series' points and each reference line's y, from ``scalar_pix``.

    The rows carry columns "s" (the series), "x" and "y".
    """
    xs = [r["x"] for r in rows if not spec.x_log or r["x"] > 0]
    ys = [y for y in [r["y"] for r in rows] + list(spec.hlines)
          if not spec.y_log or y > 0]
    x_axis = svg._Axis(min(xs), max(xs), spec.x_log, svg.MARGIN_L, svg.WIDTH - svg.MARGIN_R)
    y_axis = svg._Axis(min(ys), max(ys), spec.y_log, svg.HEIGHT - svg.MARGIN_B, svg.MARGIN_T)
    groups: dict = {}
    for r in rows:
        if (not spec.x_log or r["x"] > 0) and (not spec.y_log or r["y"] > 0):
            groups.setdefault(r["s"], []).append(
                f"{scalar_pix(x_axis, r['x']):.2f},{scalar_pix(y_axis, r['y']):.2f}")
    hlines = [f"{scalar_pix(y_axis, h):.2f}" for h in spec.hlines
              if not spec.y_log or h > 0]
    return list(groups.values()), hlines


def drawn_marks(doc):
    """Each drawn series' points, polyline or lone circle, and each reference line's y."""
    series = [points.split(" ") if points else [f"{cx},{cy}"] for points, cx, cy in
              re.findall(r'<polyline points="([^"]*)"|<circle cx="([^"]*)" cy="([^"]*)"', doc)]
    hlines = re.findall(r'<line x1="80" y1="([^"]*)" x2="770" y2="\1" '
                        r'stroke="black" stroke-dasharray', doc)
    return series, hlines


class TestSvg:
    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_svg([], PLOT_RECIPES["pass"])

    def test_single_point_renders_marker(self):
        rows = [{"x": 1.0, "y": 2.0}]
        doc = render_svg(rows, AxesSpec(x="x", ys=("y",)))
        assert "<circle" in doc
        assert "<polyline" not in doc

    def test_byte_identical_for_identical_inputs(self):
        report = run_turbulence(FIG4)
        doc1 = render_svg(report.row_dicts(), PLOT_RECIPES["turbulence"])
        doc2 = render_svg(report.row_dicts(), PLOT_RECIPES["turbulence"])
        assert doc1 == doc2

    def test_fig4_recipe_has_series_and_reference_line(self):
        report = run_turbulence(FIG4)
        doc = render_svg(report.row_dicts(), PLOT_RECIPES["turbulence"])
        assert doc.count("<polyline") == 4  # two metrics x two wavelengths
        assert doc.count("stroke-dasharray") == 1  # 1.5 kHz reference
        assert "810" in doc and "1550" in doc

    def test_log_axis_validation(self):
        rows = [{"x": -1.0, "y": 1.0}, {"x": -0.5, "y": 2.0}]
        with pytest.raises(ValueError, match="log x"):
            render_svg(rows, AxesSpec(x="x", ys=("y",), x_log=True))

    @pytest.mark.parametrize("x_log, y_log, hlines", [
        (False, False, (1234.5,)),
        (True, False, (-3.0,)),
        (True, True, (-5.0, 0.0, 1500.0)),
    ], ids=["linear", "log-x", "log-xy-nonpositive-filtered"])
    def test_points_match_scalar_formula(self, x_log, y_log, hlines):
        rng = random.Random(7)
        rows = [{"s": s, "x": 10 ** rng.uniform(-3, 4), "y": rng.uniform(-1e3, 2e5)}
                for s in ("A", "B", "A", "B", "C") for _ in range(40)]
        rows.append({"s": "D", "x": 3.7, "y": 4.1e3})  # a lone point: a circle
        rows += [{"s": "E", "x": 0.0, "y": 1.0}, {"s": "E", "x": 2.0, "y": -1.0}]
        spec = AxesSpec(x="x", ys=("y",), series_by="s", x_log=x_log, y_log=y_log,
                        hlines=hlines)
        doc = render_svg(rows, spec)
        expected = oracle_marks(rows, spec)
        assert drawn_marks(doc) == expected
        assert doc.count("<circle") == sum(len(points) == 1 for points in expected[0]) >= 1
        assert len(expected[1]) >= 1

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_to_pix_equals_scalar_formula_bit_for_bit(self, log):
        rng = random.Random(3)
        values = [10 ** rng.uniform(-4, 6) for _ in range(2000)]
        axis = svg._Axis(min(values), max(values), log, svg.HEIGHT - svg.MARGIN_B,
                         svg.MARGIN_T)
        assert (axis.to_pix(np.array(values)).tolist()
                == [scalar_pix(axis, v) for v in values])

    def test_pixel_work_is_per_array(self, monkeypatch):
        report = run_pass(FIG2)
        calls = {"to_pix": 0, "_fmt": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(svg._Axis, "to_pix", counting("to_pix", svg._Axis.to_pix))
        monkeypatch.setattr(svg, "_fmt", counting("_fmt", svg._fmt))
        doc = render_svg(report.row_dicts(), PLOT_RECIPES["pass"])
        ticks = doc.count('font-size="11">') - doc.count("stroke-width=\"2\"")
        series = doc.count("<polyline") + doc.count("<circle")
        hlines = doc.count("stroke-dasharray")
        assert (len(report.rows), series) == (453, 2)
        # Two tick arrays, one of reference lines, two per series.
        assert calls["to_pix"] <= 3 + 2 * series
        # A tick formats three numbers, a reference line or lone point two.
        assert calls["_fmt"] <= 3 * ticks + 2 * (hlines + series)
        assert 3 * ticks + 2 * (hlines + series) < len(report.rows)

    def test_tick_past_float_max_maps_silently(self):
        # The top tick lies just above the data, and tick - lo overflows to
        # inf, as in Python float arithmetic: no warning, the same pixel.
        hi = 1e308 * (1 - 2e-13)
        lo = hi - sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            doc = render_svg([{"x": 0.0, "y": lo}, {"x": 1.0, "y": hi}],
                             AxesSpec(x="x", ys=("y",)))
        assert '<text x="72" y="-inf" text-anchor="end"' in doc

    def test_y_span_past_float_max_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        rows = ((0.0, -1.7e308, 1.0, 0.0, 0.0), (1.0, 1.7e308, 2.0, 0.0, 0.0))
        report = studies.StudyReport("pass", "0" * 64, ("t_s", "elevation_deg",
                                     "range_km", "slew_rad_s", "eta_sys_db"), rows)
        monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: report)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                render_svg(report.row_dicts(), PLOT_RECIPES["pass"])
            code = cli.main(["pass", "--out", str(tmp_path / "r.csv"),
                             "--svg", str(tmp_path / "fig.svg")])
        assert code == 3
        assert "numerical failure: cannot render figure" in capsys.readouterr().err

    def test_interleaved_series_keep_first_seen_and_row_order(self):
        data = [("A", 2.0, 10.0), ("B", 0.0, 22.0), ("A", 0.0, 11.0),
                ("B", 2.0, 21.0), ("A", 1.0, 12.0), ("B", 1.0, 20.0)]
        rows = [{"s": s, "x": x, "y": y} for s, x, y in data]
        doc = render_svg(rows, AxesSpec(x="x", ys=("y",), series_by="s"))
        lines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', doc)
        assert [color for _, color in lines] == list(PALETTE[:2])
        assert re.findall(r'font-size="11">([AB])</text>', doc) == ["A", "B"]
        # x spans 0..2 over pixels 80..770, y spans 10..22 over 540..50.
        for (points, _), series in zip(lines, ("A", "B")):
            expected = [v for s, x, y in data if s == series
                        for v in (80 + 345 * x, 540 - 490 * (y - 10) / 12)]
            got = [float(v) for p in points.split() for v in p.split(",")]
            assert got == pytest.approx(expected, abs=0.006)

    @pytest.mark.parametrize("study, base, edits", [
        ("fidelity", FIG3_TEXT, [("noise", "fov_sr", "1e-25"), ("noise", "dark_hz", "0"),
                                 ("link", "pointing_levels", "weak"),
                                 ("link", "compare_divergence_urad", "34")]),
        ("turbulence", FIG4_TEXT, [("turbulence", "slew_mode", "fixed"),
                                   ("turbulence", "slew_rad_s", "2e10"),
                                   ("turbulence", "wavelengths_nm", "1e-241")]),
    ], ids=["fig3-fidelity-axis-narrower-than-float-spacing",
            "fig4-greenwood-past-1e308"])
    def test_extreme_axis_ranges_render(self, tmp_path, study, base, edits):
        for section, key, raw in edits:
            base = set_key(base, section, key, raw)
        scenario, svg = tmp_path / "case.scn", tmp_path / "fig.svg"
        scenario.write_text(base)
        proc = run_cli(study, "--scenario", str(scenario), "--svg", str(svg),
                       timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        y_ticks = ElementTree.parse(svg).getroot().findall(
            "{http://www.w3.org/2000/svg}text[@text-anchor='end']")
        if study == "turbulence":
            assert y_ticks[-1].text == "1e+308"
        if study == "fidelity":
            labels = [t.text for t in y_ticks]
            assert len(set(labels)) == len(labels), labels


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "skyqlink.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


# Run in a fresh interpreter whose import system refuses scipy, so the
# check holds also where scipy is installed.
NO_SCIPY_RUN = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} must not be imported")
        return None


sys.meta_path.insert(0, RefuseScipy())
from skyqlink import cli
from skyqlink.scenarios import BUNDLED

out = sys.argv[1]
# fidelity needs a static pair, which only fig3 has.
jobs = [[study, "--scenario", name] for study in ("pass", "turbulence")
        for name in BUNDLED] + [["fidelity", "--scenario", "fig3_haps_laps"],
                                ["skl", "--scenario", "fig2_leo_haps"]]
for args in jobs:
    code = cli.main(args + ["--out", out + "/report.csv", "--svg", out + "/figure.svg"])
    assert code == 0, (args, code)
leaked = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not leaked, leaked
"""


class TestNoScipy:
    def test_studies_run_with_scipy_refused(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter, since this one has imported every module: print
# which physics modules the CLI import loads, then which one study adds.
PHYSICS_LOADED_RUN = """
import sys

from skyqlink import cli


def physics():
    return sorted(m for m in ("skyqlink.atmosphere", "skyqlink.finitekey")
                  if m in sys.modules)


print(physics())
code = cli.main(sys.argv[2:] + ["--out", sys.argv[1] + "/report.csv",
                                "--svg", sys.argv[1] + "/figure.svg"])
assert code == 0, code
print(physics())
print("numpy.polynomial" in sys.modules)
"""


class TestColdImports:
    @pytest.mark.parametrize("args, loaded", [
        (["pass", "--scenario", "fig3_haps_laps"], []),
        (["fidelity", "--scenario", "fig3_haps_laps"], []),
        (["plot", "--study", "pass", "--scenario", "fig3_haps_laps"], []),
        (["turbulence", "--scenario", "fig4_leo_ground"], ["skyqlink.atmosphere"]),
        (["skl", "--scenario", "fig2_leo_haps"], ["skyqlink.finitekey"]),
    ], ids=["pass", "fidelity", "plot", "turbulence", "skl"])
    def test_only_the_study_run_loads_its_physics(self, tmp_path, args, loaded):
        proc = subprocess.run([sys.executable, "-c", PHYSICS_LOADED_RUN,
                               str(tmp_path), *args],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # No study loads numpy.polynomial: the turbulence rule is a stored table.
        assert proc.stdout.splitlines() == ["[]", repr(loaded), "False"]


class TestCli:
    def test_turbulence_stdout(self):
        proc = run_cli("turbulence", "--scenario", str(bundled_path("fig4_leo_ground")))
        assert proc.returncode == 0
        assert "zenith_deg,wavelength_nm" in proc.stdout

    def test_bundled_name_resolution(self):
        proc = run_cli("fidelity", "--scenario", "fig3_haps_laps")
        assert proc.returncode == 0

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[link]\nweak_sigma_urad = -1\n")
        proc = run_cli("pass", "--scenario", str(bad))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert "line 2" in proc.stderr

    def test_repeated_pointing_level_exit_2(self, tmp_path):
        # A repeated level would write every row, and draw every series, twice.
        bad = tmp_path / "bad.scn"
        bad.write_text(set_key(FIG3_TEXT, "link", "pointing_levels", "weak, weak"))
        proc = run_cli("fidelity", "--scenario", str(bad))
        assert proc.returncode == 2
        assert "pointing_levels must list each pointing level once" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("study, text", [
        ("pass", "[pass]\ntx_altitude_km = inf\n"),
        ("turbulence", "[turbulence]\nzenith_points = inf\n"),
        ("pass", "[link]\nwavelength_nm = inf\n"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, study, text):
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        proc = run_cli(study, "--scenario", str(bad))
        assert proc.returncode == 2
        assert "not a finite number (line 2, column 1)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("study, text, code", [
        ("skl", "[optimizer]\nmu1_min = 1e-200\nmu2_min = 1e-201\n", 2),
        ("pass", "[pass]\ntx_altitude_km = 1e300\n", 2),
        ("turbulence", FIG4_TEXT.replace("ground_cn2 = 1.7e-14",
                                         "ground_cn2 = 1e300"), 2),
        ("pass", FIG4_TEXT.replace("tx_altitude_km = 535",
                                   "tx_altitude_km = 1e-12"), 3),
        ("turbulence", FIG4_TEXT.replace("tx_altitude_km = 535",
                                         "tx_altitude_km = 1e-12"), 3),
        ("skl", "[security]\neps_sec = 1e-300\n", 2),
    ], ids=["tiny-intensity", "huge-altitude", "fig4-huge-cn2",
            "fig4-tiny-altitude-pass", "fig4-tiny-altitude-turbulence",
            "tiny-security-budget"])
    def test_extreme_values_fail_cleanly(self, tmp_path, study, text, code):
        scenario, out = tmp_path / "case.scn", tmp_path / "out.csv"
        scenario.write_text(text)
        proc = run_cli(study, "--scenario", str(scenario), "--out", str(out))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        cells = [] if not out.exists() else [
            cell.strip().lower() for line in out.read_text().splitlines()
            if not line.startswith("#") for cell in line.split(",")]
        assert not {"inf", "-inf", "nan"} & set(cells)

    @pytest.mark.parametrize("study, text, names", [
        ("turbulence", FIG4_TEXT.replace("rx_altitude_km = 0", "rx_altitude_km = 100"),
         ("pass.rx_altitude_km = 100", "turbulence.h_cap_km = 30")),
        ("turbulence", FIG4_TEXT.replace("rx_altitude_km = 0", "rx_altitude_km = 30"),
         ("pass.rx_altitude_km = 30", "turbulence.h_cap_km = 30")),
        ("skl", "[protocol]\nsource_rate_mhz = 1e300\n[skl]\ndt_values_s = 10\n",
         ("pe=weak", "dt_s=10.0")),
        ("fidelity", FIG3_TEXT.replace("fov_sr = 1.4e-10", "fov_sr = 1e300"),
         ("pe=weak", "overflow")),
    ], ids=["fig4-receiver-above-cap", "fig4-receiver-at-cap", "skl-key-past-int64",
            "fig3-background-overflow"])
    def test_out_of_model_inputs_exit_3(self, tmp_path, study, text, names):
        code, stderr, csv_text = run_main(study, text, tmp_path, errors=Warning)
        assert code == 3
        assert stderr.startswith(f"numerical failure: {study} study failed")
        assert all(name in stderr for name in names)
        assert csv_text is None

    @pytest.mark.parametrize("study", ["pass", "skl", "fidelity", "turbulence"])
    @pytest.mark.parametrize("text, message", [
        ("[security]\neps_sec = 1e-200\n",
         "security.eps_sec must be >= 1e-150, got 1e-200 (line 2, column 1)"),
        ("[pass]\nmax_elevation_deg = 90\nhorizon_elevation_deg = 90\n",
         "pass.horizon_elevation_deg must be < 90, got 90 (line 3, column 1)"),
    ], ids=["tiny-security-budget", "horizon-at-zenith"])
    def test_schema_bounds_exit_2_in_every_study(self, tmp_path, study, text, message):
        # Both values fail only deep inside one study unless the schema rejects them.
        code, stderr, csv_text = run_main(study, text, tmp_path)
        assert code == cli.EXIT_CONFIG
        assert stderr == f"configuration error: {message}\n"
        assert csv_text is None

    def test_missing_scenario_exit_2(self):
        proc = run_cli("pass", "--scenario", "/no/such/file.scn")
        assert proc.returncode == 2

    def test_out_and_svg_files(self, tmp_path):
        out = tmp_path / "fid.csv"
        svg = tmp_path / "fid.svg"
        proc = run_cli("fidelity", "--scenario", "fig3_haps_laps",
                       "--out", str(out), "--svg", str(svg))
        assert proc.returncode == 0
        assert out.read_text().startswith("# skyqlink")
        assert svg.read_text().startswith("<svg")

    def test_plot_subcommand(self, tmp_path):
        svg = tmp_path / "fig4.svg"
        proc = run_cli("plot", "--study", "turbulence",
                       "--scenario", "fig4_leo_ground", "--svg", str(svg))
        assert proc.returncode == 0
        assert proc.stdout == ""  # plot emits no CSV
        assert svg.exists()

    def test_plot_requires_svg(self):
        proc = run_cli("plot", "--study", "turbulence")
        assert proc.returncode == 2

    def test_default_scenario_runs(self):
        proc = run_cli("pass")
        assert proc.returncode == 0
        assert "t_s,elevation_deg" in proc.stdout

    @pytest.mark.parametrize("argv, name", [
        (["pass", "--out"], "pass.csv"),
        (["plot", "--study", "pass", "--svg"], "pass.svg"),
    ], ids=["study-out", "plot-svg"])
    def test_unwritable_output_exit_2(self, tmp_path, argv, name):
        target = tmp_path / "missing" / name
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, str(target)])
        assert code == 2
        assert stderr.getvalue().startswith("error: cannot write output: ")
        assert "Traceback" not in stderr.getvalue()
        assert not target.parent.exists()


def run_main(study, text, tmp_dir, errors=RuntimeWarning):
    """``cli.main`` in process on scenario text, with warnings of class
    ``errors`` raised; returns the exit code, stderr and the CSV or None."""
    scenario, out = tmp_dir / "case.scn", tmp_dir / "out.csv"
    scenario.write_text(text)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", errors)
        code = cli.main([study, "--scenario", str(scenario), "--out", str(out),
                         "--svg", str(tmp_dir / "fig.svg")])
    return code, stderr.getvalue(), out.read_text() if out.exists() else None


def set_key(text, section, key, raw):
    """Rewrite ``key`` in place in its ``[section]``, or insert it there."""
    lines, current, header = text.splitlines(), None, None
    for i, line in enumerate(lines):
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            current = body[1:-1].strip()
            header = i if current == section else header
        elif current == section and body.split("=", 1)[0].strip() == key:
            lines[i] = f"{key} = {raw}"
            return "\n".join(lines) + "\n"
    if header is None:
        lines.append(f"[{section}]")
        header = len(lines) - 1
    lines.insert(header + 1, f"{key} = {raw}")
    return "\n".join(lines) + "\n"


FIG2_TEXT = bundled_path("fig2_leo_haps").read_text()
FUZZ_TEXT = {
    "pass": FIG2_TEXT,
    "skl": set_key(FIG2_TEXT, "skl", "dt_values_s", "10"),
    "fidelity": FIG3_TEXT,
    "turbulence": FIG4_TEXT,
}
# Keys that set how many samples or grid points a study allocates.
SIZE_KEYS = [("pass", "sample_interval_s"), ("pass", "static_duration_s"),
             ("fidelity", "radiance_points"), ("turbulence", "zenith_points")]
# The sections each study reads.
FUZZ_SECTIONS = {
    "pass": ("pass", "link"),
    "skl": ("pass", "link", "noise", "protocol", "optimizer", "security"),
    "fidelity": ("pass", "link", "noise", "entanglement", "fidelity"),
    "turbulence": ("pass", "turbulence"),
}
FUZZ_KEYS = {study: [(section, key) for section in sections
                     for key, spec in SCHEMA[section].items()
                     if isinstance(spec.default, (float, int)) and (section, key) not in SIZE_KEYS]
             for study, sections in FUZZ_SECTIONS.items()}
# The whole float line, plus dense draws in the ranges where keys live.
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitCodeContract:
    """One numeric key edited per example: exit 0, 2 or 3, and clean output."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(edit=st.sampled_from(sorted(FUZZ_KEYS)).flatmap(
        lambda study: st.tuples(st.just(study), st.sampled_from(FUZZ_KEYS[study]))),
        value=VALUES)
    def test_numeric_key_edit(self, fuzz_dir, edit, value):
        study, key = edit
        text = set_key(FUZZ_TEXT[study], *key, repr(value))
        code, _, csv_text = run_main(study, text, fuzz_dir)
        assert code in (0, 2, 3)
        assert (csv_text is not None) == (code == 0)
        if csv_text is not None:
            cells = {cell.strip().lower() for line in csv_text.splitlines()
                     if not line.startswith("#") for cell in line.split(",")}
            assert not {"inf", "-inf", "nan"} & cells
            replayed = scenario_from_config_lines(csv_text.splitlines())
            assert replayed.digest == parse_scenario_text(text).digest

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(key=st.sampled_from(SIZE_KEYS), value=VALUES)
    def test_size_key_edit_is_validated(self, key, value):
        for text in FUZZ_TEXT.values():
            try:
                scenario = parse_scenario_text(set_key(text, *key, repr(value)))
            except ScenarioError:
                continue
            if key[1].endswith("_points"):
                assert 2 <= scenario.get(*key) <= 1e5
