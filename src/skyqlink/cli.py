"""Command-line front end.

    skyqlink pass|skl|fidelity|turbulence [--scenario S] [--out CSV]
                                          [--svg SVG] [--threads N]
    skyqlink plot --study NAME --svg SVG [--scenario S] [--threads N]

``--scenario`` takes a file path or the bare name of a bundled recipe
(fig2_leo_haps, fig3_haps_laps, fig4_leo_ground); without it the
all-defaults scenario runs.  CSV goes to stdout unless ``--out`` is
given.  Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
``--threads`` is accepted and currently has no effect on output or work:
every study runs in one thread.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_text
from .scenarios import bundled_path
from .studies import PLOT_RECIPES, STUDIES, StudyNumericalError, run_study
from .svg import render_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_scenario(arg: str | None) -> Scenario:
    if arg is None:
        return parse_scenario_text("")
    path = Path(arg)
    if not path.exists():
        try:
            path = bundled_path(arg)
        except KeyError:
            raise ScenarioError(f"scenario file not found: {arg}") from None
    return parse_scenario(path)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario file or bundled recipe name "
                             "(default: all-defaults scenario)")
    parser.add_argument("--out", metavar="PATH",
                        help="CSV output path (default: stdout)")
    parser.add_argument("--svg", metavar="PATH",
                        help="also render the study's default figure here")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; currently has no "
                             "effect on output or work")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyqlink",
        description="Free-space quantum link studies: pass geometry, "
                    "finite-key BB84, entanglement fidelity, turbulence.")
    sub = parser.add_subparsers(dest="command", required=True)
    for study in STUDIES:
        p = sub.add_parser(study, help=f"run the {study} study")
        _add_common(p)
    plot = sub.add_parser("plot", help="run a study and render only its figure")
    plot.add_argument("--study", required=True, choices=sorted(STUDIES))
    _add_common(plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    study = args.study if args.command == "plot" else args.command
    if args.command == "plot" and not args.svg:
        print("error: plot requires --svg", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        scenario = _load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # A floating-point fault that no study guards is a numerical failure.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = run_study(study, scenario, threads=args.threads)
    except StudyNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        # Raised outside a study's per-point guards, e.g. while building
        # the pass or the turbulence profile.
        print(f"numerical failure: {study} study failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if args.svg:
        try:
            document = render_svg(report.row_dicts(), PLOT_RECIPES[study])
        except (ValueError, ArithmeticError) as exc:
            print(f"numerical failure: cannot render figure: {exc}",
                  file=sys.stderr)
            return EXIT_NUMERIC

    try:
        if args.svg:
            Path(args.svg).write_text(document, encoding="utf-8")
        if args.command != "plot":
            csv_text = report.to_csv()
            if args.out:
                Path(args.out).write_text(csv_text, encoding="utf-8")
            else:
                sys.stdout.write(csv_text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
