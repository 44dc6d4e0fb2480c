"""Study orchestration: CSV schemas, determinism, SVG rendering, CLI."""

import dataclasses
import subprocess
import sys
import warnings

import pytest

from skyqlink import studies
from skyqlink.scenario import parse_scenario, parse_scenario_text, scenario_from_config_lines
from skyqlink.scenarios import bundled_path
from skyqlink.studies import (
    PLOT_RECIPES,
    StudyNumericalError,
    run_fidelity,
    run_pass,
    run_study,
    run_turbulence,
)
from skyqlink.svg import AxesSpec, render_svg

FIG3 = parse_scenario(bundled_path("fig3_haps_laps"))
FIG4 = parse_scenario(bundled_path("fig4_leo_ground"))
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

        fried_r0 = studies.fried_r0
        monkeypatch.setattr(studies, "fried_r0", noisy_fried_r0)
        with pytest.warns(UserWarning, match="unrelated"):
            report = run_turbulence(parse_scenario_text(""))
        assert not any("scintillation" in w for w in report.warnings)

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


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "skyqlink.cli", *args],
                          capture_output=True, text=True)


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
    ], ids=["tiny-intensity", "huge-altitude", "fig4-huge-cn2",
            "fig4-tiny-altitude-pass", "fig4-tiny-altitude-turbulence"])
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
