"""The output checker accepts a real report and rejects corrupted ones.

    python3 -m pytest perfbench/test_check.py

Builds one small ``skl`` report (one PE level, one window) in process,
then feeds the checker the report as written and with one SKL bit
flipped or one row dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402


@pytest.fixture(scope="module")
def skl_output(tmp_path_factory):
    from skyqlink.scenario import parse_scenario
    from skyqlink.studies import PLOT_RECIPES, run_study
    from skyqlink.svg import render_svg

    text = (ROOT / gen.RECIPE_DIR / "fig2_leo_haps.scn").read_text(encoding="utf-8")
    text = gen.apply_overrides(text, {("link", "pointing_levels"): "weak, strong",
                                      ("skl", "dt_values_s"): 10.0})
    path = tmp_path_factory.mktemp("skl") / "small.scn"
    path.write_text(text, encoding="utf-8")
    report = run_study("skl", parse_scenario(path))
    job = gen.Job(name="small", study="skl", command="skl", scenario=str(path),
                  unperturbed=False, expect=gen.expectations("skl", text)).to_dict()
    rows = json.loads(json.dumps([list(r) for r in report.rows]))
    svg = render_svg(report.row_dicts(), PLOT_RECIPES["skl"])
    return job, report.to_csv(), svg, rows


def _flip_first_bit(csv_text: str, rows: list) -> tuple[str, list]:
    lines = csv_text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("dt_s,")) + 1
    cells = lines[at].split(",")
    flipped = int(cells[2]) ^ 1
    cells[2] = str(flipped)
    lines[at] = ",".join(cells)
    rows = [list(r) for r in rows]
    rows[0][2] = float(flipped)
    return "\n".join(lines) + "\n", rows


def test_accepts_the_report_as_written(skl_output):
    job, csv_text, svg, rows = skl_output
    problems, count = check.check_output(job, csv_text, svg, rows)
    assert problems == []
    assert count == 2


def test_rejects_a_flipped_skl_bit(skl_output):
    job, csv_text, svg, rows = skl_output
    bad_csv, bad_rows = _flip_first_bit(csv_text, rows)
    problems, _ = check.check_output(job, bad_csv, svg, bad_rows)
    assert any("oracle" in p for p in problems)
    # Flipped in the CSV only, the CSV no longer matches the report rows.
    problems, _ = check.check_output(job, bad_csv, svg, rows)
    assert problems


def test_rejects_a_dropped_row(skl_output):
    job, csv_text, svg, rows = skl_output
    dropped = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    problems, _ = check.check_output(job, dropped, svg, rows[:-1])
    assert any("expected 2" in p for p in problems)
    problems, _ = check.check_output(job, dropped, svg, None)
    assert any("expected 2" in p for p in problems)
