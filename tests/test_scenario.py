"""Scenario parsing, defaults, diagnostics, digest, metadata round-trip."""

import contextlib
import dataclasses
import io

import pytest

from skyqlink import cli, scenario, studies
from skyqlink.scenario import (
    SCHEMA,
    ScenarioError,
    parse_scenario,
    parse_scenario_text,
    scenario_from_config_lines,
)
from skyqlink.scenarios import BUNDLED, bundled_path


class TestParsing:
    def test_empty_file_resolves_to_all_defaults(self):
        scn = parse_scenario_text("")
        assert scn.get("pass", "tx_altitude_km") == 535.0
        assert scn.get("link", "divergence_urad") == 33.0
        assert all((section, key) in scn.defaulted
                   for section in scn.values for key in scn.values[section])

    def test_values_override_defaults(self):
        scn = parse_scenario_text("[pass]\ntx_altitude_km = 400\n")
        assert scn.get("pass", "tx_altitude_km") == 400.0
        assert ("pass", "tx_altitude_km") not in scn.defaulted
        assert ("pass", "rx_altitude_km") in scn.defaulted

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n[link]\n  wavelength_nm = 1550  # telecom band\n"
        scn = parse_scenario_text(text)
        assert scn.get("link", "wavelength_nm") == 1550.0

    def test_lists(self):
        scn = parse_scenario_text(
            "[link]\npointing_levels = weak, strong\n"
            "[skl]\ndt_values_s = 5, 10, 50\n")
        assert scn.get("link", "pointing_levels") == ("weak", "strong")
        assert scn.get("skl", "dt_values_s") == (5.0, 10.0, 50.0)


class TestDiagnostics:
    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match=r"unknown section.*line 3"):
            parse_scenario_text("# x\n\n[warp_drive]\n")

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ScenarioError, match=r"unknown key 'colour'.*line 2"):
            parse_scenario_text("[link]\ncolour = blue\n")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ScenarioError, match="weak_sigma_urad"):
            parse_scenario_text("[link]\nweak_sigma_urad = -1\n")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario_text("[link]\nwavelength_nm\n")

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario_text("wavelength_nm = 810\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_text("[link]\neta_tx = 0.5\neta_tx = 0.6\n")

    def test_bad_number(self):
        with pytest.raises(ScenarioError, match="cannot parse"):
            parse_scenario_text("[link]\nwavelength_nm = eight-ten\n")

    def test_cross_key_validation(self):
        with pytest.raises(ScenarioError, match="tx_altitude_km"):
            parse_scenario_text("[pass]\ntx_altitude_km = 5\nrx_altitude_km = 20\n")

    def test_unknown_pointing_level(self):
        with pytest.raises(ScenarioError, match="pointing level"):
            parse_scenario_text("[link]\npointing_levels = weak, wobbly\n")

    def test_repeated_pointing_level(self):
        with pytest.raises(ScenarioError, match="each pointing level once"):
            parse_scenario_text("[link]\npointing_levels = weak, moderate, weak\n")

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario("/nonexistent/path.scn")

    @pytest.mark.parametrize("text", [
        "[pass]\ntx_altitude_km = inf\n",
        "[link]\nwavelength_nm = inf\n",
        "[noise]\nradiance_w_m2_nm_sr = +Infinity\n",
        "[link]\neta_tx = nan\n",
        "[pass]\nrx_altitude_km = -inf\n",
        "[link]\ndivergence_urad = 1e999\n",
        "[turbulence]\nzenith_points = inf\n",
        "[fidelity]\nradiance_points = NaN\n",
        "[skl]\ndt_values_s = 10, inf, 30\n",
        "[turbulence]\nwavelengths_nm = nan\n",
    ])
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ScenarioError,
                           match=r"not a finite number \(line 2, column 1\)"):
            parse_scenario_text(text)

    def test_non_finite_rejected_in_config_lines(self):
        with pytest.raises(ScenarioError, match="not a finite number"):
            scenario_from_config_lines(["link.wavelength_nm = inf"])

    @pytest.mark.parametrize("line", [
        "turbulence.ground_cn2 = 1e300",
        "optimizer.mu1_min = 1e-200",
        "pass.tx_altitude_km = 1e300",
    ])
    def test_config_lines_run_the_per_key_checks(self, line):
        with pytest.raises(ScenarioError, match="must be"):
            scenario_from_config_lines([line])

    def test_config_lines_reject_duplicates(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_config_lines(["link.eta_tx = 0.5", "link.eta_tx = 0.6"])

    @pytest.mark.parametrize("text", [
        "[fidelity]\nradiance_points = 100001\n",
        "[turbulence]\nzenith_points = 100001\n",
    ])
    def test_grid_sizes_capped(self, text):
        with pytest.raises(ScenarioError,
                           match=r"must be <= 100000, got 100001 \(line 2, column 1\)"):
            parse_scenario_text(text)

    def test_window_count_capped(self):
        # The skl search's memory grows with the square of its window count.
        text = "[skl]\ndt_values_s = {}\n"
        values = [str(v) for v in range(1, 102)]
        at_cap = parse_scenario_text(text.format(", ".join(values[:100])))
        assert len(at_cap.get("skl", "dt_values_s")) == 100
        with pytest.raises(ScenarioError, match=r"^skl\.dt_values_s must list <= 100 "
                                                r"values, got .* \(line 2, column 1\)$"):
            parse_scenario_text(text.format(", ".join(values)))

    # Parse level only: a study is never run at an oversized mesh.
    ELEVEN_WAVELENGTHS = ", ".join(str(800 + 10 * i) for i in range(11))

    def test_turbulence_mesh_capped(self):
        text = ("[turbulence]\nzenith_points = 100000\n"
                f"wavelengths_nm = {self.ELEVEN_WAVELENGTHS}\n")
        with pytest.raises(ScenarioError, match=r"must be <= 1000000"):
            parse_scenario_text(text)
        at_cap = parse_scenario_text(text.replace("100000", "90909"))
        assert at_cap.get("turbulence", "zenith_points") == 90909

    def test_turbulence_mesh_capped_in_config_lines(self):
        lines = ["turbulence.zenith_points = 100000",
                 f"turbulence.wavelengths_nm = {self.ELEVEN_WAVELENGTHS}"]
        with pytest.raises(ScenarioError, match=r"must be <= 1000000"):
            scenario_from_config_lines(lines)
        lines[0] = "turbulence.zenith_points = 50000"
        assert scenario_from_config_lines(lines).get("turbulence", "zenith_points") == 50000


class TestSchema:
    """Each key's type is its default's type; each rule's data is in SCHEMA."""

    @pytest.mark.parametrize("section,key", [(s, k) for s in SCHEMA for k in SCHEMA[s]])
    def test_default_round_trips_with_its_type_and_passes_its_check(self, section, key):
        default, check = SCHEMA[section][key]
        value = scenario._parse_value(default, scenario._format_value(default))
        assert value == default
        assert type(value) is type(default)
        if isinstance(default, tuple):
            # The first item gives the item type, so a list default has one.
            assert default
            assert [type(v) for v in value] == [type(v) for v in default]
        assert check(default) is None

    def test_every_min_key_has_its_max_twin(self):
        lows = [(s, k) for s in SCHEMA for k in SCHEMA[s] if "_min" in k]
        assert len(lows) == 7
        for section, low in lows:
            assert low.replace("_min", "_max") in SCHEMA[section]

    def test_pointing_levels_are_the_sigma_keys(self):
        levels = [k.removesuffix("_sigma_urad") for k in SCHEMA["link"]
                  if k.endswith("_sigma_urad")]
        assert levels == ["weak", "moderate", "strong"]
        assert scenario._level_list(tuple(levels)) is None
        assert scenario._level_list(("weak", "wobbly")) == (
            "unknown pointing level(s) ['wobbly']; allowed: weak, moderate, strong")
        for scn in [parse_scenario_text("")] + [parse_scenario(bundled_path(n)) for n in BUNDLED]:
            for name in scn.get("link", "pointing_levels"):
                assert f"{name}_sigma_urad" in SCHEMA["link"]
            assert [label for label, _ in studies.pointing_levels(scn)] == list(
                scn.get("link", "pointing_levels"))


MESH_WAVELENGTHS = ", ".join(str(800 + 10 * i) for i in range(11))
RANGE_PAIRS = [
    ("optimizer", "mu1_min", "0.9", "mu1_max", "0.5"),
    ("optimizer", "mu2_min", "0.3", "mu2_max", "0.3"),
    ("optimizer", "px_min", "0.8", "px_max", "0.6"),
    ("optimizer", "p1_min", "0.7", "p1_max", "0.7"),
    ("optimizer", "p2_min", "0.4", "p2_max", "0.2"),
    ("fidelity", "radiance_min_w_m2_nm_sr", "1", "radiance_max_w_m2_nm_sr", "0.5"),
    ("turbulence", "zenith_min_deg", "70", "zenith_max_deg", "60"),
]
# (section, [(key, raw)...], message); a per-key rule's message gains the line
# and column of its last key, which the test fills in.
CROSS_KEY_RULES = [
    (section, [(low, low_raw), (high, high_raw)],
     f"{section}.{low} must be below {section}.{high}")
    for section, low, low_raw, high, high_raw in RANGE_PAIRS
] + [
    ("pass", [("tx_altitude_km", "5"), ("rx_altitude_km", "20")],
     "pass.tx_altitude_km must exceed pass.rx_altitude_km"),
    ("pass", [("tx_altitude_km", "20"), ("rx_altitude_km", "20")],
     "pass.tx_altitude_km must exceed pass.rx_altitude_km"),
    ("pass", [("max_elevation_deg", "5"), ("horizon_elevation_deg", "10")],
     "pass.max_elevation_deg must be >= pass.horizon_elevation_deg"),
    ("turbulence", [("zenith_points", "100000"), ("wavelengths_nm", MESH_WAVELENGTHS)],
     "turbulence.zenith_points times the number of turbulence.wavelengths_nm "
     "must be <= 1000000"),
    ("pass", [("static_zenith_deg", "90")], "pass.static_zenith_deg must be < 90, got 90"),
    ("turbulence", [("zenith_max_deg", "90")], "turbulence.zenith_max_deg must be < 90, got 90"),
    ("pass", [("max_elevation_deg", "90"), ("horizon_elevation_deg", "90")],
     "pass.horizon_elevation_deg must be < 90, got 90"),
    ("security", [("eps_sec", "1e-200")], "security.eps_sec must be >= 1e-150, got 1e-200"),
]


class TestCrossKeyRules:
    """Every rule that spans keys, bounds an angle below 90 or eps_sec at 1e-150, exits 2 cleanly."""

    @pytest.mark.parametrize("section,keys,message", CROSS_KEY_RULES)
    def test_from_scenario_file(self, tmp_path, section, keys, message):
        path = tmp_path / "case.scn"
        path.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys))
        if "got" in message:
            message += f" (line {len(keys) + 1}, column 1)"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["pass", "--scenario", str(path), "--out", str(tmp_path / "out.csv")])
        assert code == cli.EXIT_CONFIG
        assert stderr.getvalue() == f"configuration error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("section,keys,message", CROSS_KEY_RULES)
    def test_from_config_lines(self, section, keys, message):
        lines = [f"# config {section}.{k} = {v}" for k, v in keys]
        if "got" in message:
            message += f" (line {len(keys)}, column 1)"
        with pytest.raises(ScenarioError) as info:
            scenario_from_config_lines(lines)
        assert str(info.value) == message

    @pytest.mark.parametrize("section,key", [("pass", "static_zenith_deg"),
                                             ("turbulence", "zenith_max_deg")])
    def test_zenith_just_below_90_is_accepted(self, section, key):
        scn = parse_scenario_text(f"[{section}]\n{key} = 89.999\n")
        assert scn.get(section, key) == 89.999

    @pytest.mark.parametrize("section,key,raw", [("pass", "horizon_elevation_deg", "89.999"),
                                                 ("security", "eps_sec", "1e-150")])
    def test_values_at_the_edge_are_accepted(self, section, key, raw):
        scn = parse_scenario_text(f"[{section}]\n{key} = {raw}\n")
        assert scn.get(section, key) == float(raw)


class TestDigestAndRoundTrip:
    def test_digest_stable_across_formatting(self):
        a = parse_scenario_text("[link]\nwavelength_nm = 1550\n")
        b = parse_scenario_text("# comment\n[link]\n  wavelength_nm =   1550.0\n")
        assert a.digest == b.digest

    def test_digest_changes_with_values(self):
        a = parse_scenario_text("")
        b = parse_scenario_text("[link]\nwavelength_nm = 1550\n")
        assert a.digest != b.digest

    def test_config_lines_mark_defaults_exactly_once(self):
        scn = parse_scenario_text("[link]\nwavelength_nm = 1550\n")
        lines = scn.config_lines()
        entry = [ln for ln in lines if ln.startswith("link.wavelength_nm")]
        assert len(entry) == 1
        assert "# default" not in entry[0]
        defaulted = [ln for ln in lines if ln.startswith("link.eta_tx")]
        assert len(defaulted) == 1
        assert defaulted[0].endswith("# default")

    def test_round_trip_reproduces_scenario(self):
        scn = parse_scenario(bundled_path("fig2_leo_haps"))
        rebuilt = scenario_from_config_lines(scn.config_lines())
        assert rebuilt.values == scn.values
        assert rebuilt.digest == scn.digest

    def test_round_trip_through_csv_metadata_prefix(self):
        scn = parse_scenario_text("[noise]\nradiance_w_m2_nm_sr = 2.5e-3\n")
        lines = [f"# config {ln}" for ln in scn.config_lines()]
        rebuilt = scenario_from_config_lines(lines)
        assert rebuilt.digest == scn.digest


class TestReadOnly:
    def test_values_cannot_be_assigned(self):
        scn = parse_scenario_text("")
        with pytest.raises(TypeError):
            scn.values["pass"]["tx_altitude_km"] = 400.0
        with pytest.raises(TypeError):
            scn.values["pass"] = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.values = {}
        assert scn.get("pass", "tx_altitude_km") == 535.0

    def test_metadata_is_derived_once_per_object(self, monkeypatch):
        calls = []
        real = scenario._format_value
        monkeypatch.setattr(scenario, "_format_value",
                            lambda value: calls.append(value) or real(value))
        scn = parse_scenario_text("[pass]\nhorizon_elevation_deg = 60\nsample_interval_s = 5\n")
        digest = scn.digest
        first = len(calls)
        # One call per key, and one more per element of a list value.
        assert first >= sum(len(keys) for keys in scn.values.values())
        lines = scn.config_lines()
        assert len(calls) == first
        report = studies.run_study("pass", scn)
        assert scn.digest == digest == report.digest
        assert scn.config_lines() == lines == list(report.config_lines)
        assert len(calls) == first

    def test_config_lines_are_a_fresh_list(self):
        scn = parse_scenario_text("")
        scn.config_lines().append("pass.extra = 1")
        assert scn.config_lines() == parse_scenario_text("").config_lines()

    def test_replace_derives_its_own_metadata(self):
        scn = parse_scenario_text("[pass]\ntx_altitude_km = 500\n")
        digest, lines = scn.digest, scn.config_lines()
        values = {section: dict(keys) for section, keys in scn.values.items()}
        values["pass"]["tx_altitude_km"] = 600.0
        other = dataclasses.replace(scn, values=values)
        with pytest.raises(TypeError):
            other.values["pass"]["tx_altitude_km"] = 700.0
        values["pass"]["tx_altitude_km"] = 700.0   # the caller's dict is copied
        assert other.get("pass", "tx_altitude_km") == 600.0
        assert (scn.digest, scn.config_lines()) == (digest, lines)
        assert other.digest != digest
        assert other.digest == parse_scenario_text("[pass]\ntx_altitude_km = 600\n").digest
        changed = [(a, b) for a, b in zip(lines, other.config_lines()) if a != b]
        assert len(other.config_lines()) == len(lines)
        assert changed == [("pass.tx_altitude_km = 500.0", "pass.tx_altitude_km = 600.0")]


class TestBundledScenarios:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_resolve_cleanly(self, name):
        scn = parse_scenario(bundled_path(name))
        assert scn.digest  # parse + validation succeeded

    def test_fig2_values(self):
        scn = parse_scenario(bundled_path("fig2_leo_haps"))
        assert scn.get("pass", "tx_altitude_km") == 535.0
        assert scn.get("pass", "rx_altitude_km") == 20.0
        assert scn.get("link", "divergence_urad") == 33.0
        assert scn.get("link", "rx_aperture_cm") == 35.0
        assert scn.get("protocol", "source_rate_mhz") == 200.0
        assert scn.get("link", "pointing_levels") == ("weak", "moderate", "strong")
        # No atmosphere between a 535 km orbit and a 20 km platform.
        assert scn.get("link", "eta_atm") == 1.0

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            bundled_path("fig9_warpcore")
