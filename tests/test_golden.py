"""Golden reports: each bundled study/recipe pair, and each benchmark
scenario kept under ``tests/golden/``, through ``cli.main`` against the CSV
and SVG files kept there.

Files compare byte for byte when numpy's version and the highest SIMD level
it dispatches to are recorded in ``tests/golden/recorded.json``.  Elsewhere
they compare cell by cell: text and integer cells exactly, CSV floats within
one unit in the 9th significant digit, SVG numbers within one unit in their
last printed place.  The test prints which mode ran.  It runs again in one
child process per SIMD level numpy dispatches to below the host's, each
started with ``NPY_DISABLE_CPU_FEATURES`` (``python tests/test_golden.py
--check`` is one such run).

After a declared output change, regenerate the files and the record with

    PYTHONPATH=src python tests/test_golden.py

It writes the reports once per SIMD level the host's numpy dispatches to,
each level in a child process started with ``NPY_DISABLE_CPU_FEATURES``,
and refuses to record levels whose reports differ in any byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from skyqlink import cli
from skyqlink.scenario import parse_scenario, scenario_from_config_lines
from skyqlink.scenarios import BUNDLED, bundled_path
from skyqlink.studies import STUDIES

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "recorded.json"
# perfbench/gen.py's two skl_pass jobs, the full study and its one-window
# repeat, at seeds 5 and 11, kept as the scenario files it writes.  Seed 7's
# full study is left out: with numpy's X86_V4 kernels disabled, its 50 s weak
# row reads qber 0.00849411346 in place of 0.00849411347, and _regenerate
# records no reports that differ between SIMD levels.
CORPUS = sorted(path.stem for path in GOLDEN.glob("*.scn"))
# Each golden report's file stem, and the study and --scenario it runs.
JOBS = {f"{study}_{recipe}": (study, recipe) for study in STUDIES for recipe in BUNDLED}
JOBS.update({stem: ("skl", str(GOLDEN / f"{stem}.scn")) for stem in CORPUS})
# The pairs outside a study's model: skl needs a window inside the pass,
# and fidelity needs a static geometry.
EXIT_3 = {"skl_fig3_haps_laps", "fidelity_fig2_leo_haps", "fidelity_fig4_leo_ground"}
# A number in an SVG, not part of a name or a colour.
SVG_NUMBER = re.compile(r"(?<![\w#.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")


def _dispatch_module():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def dispatched_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this process uses, lowest first."""
    umath = _dispatch_module()
    return [t for t in getattr(umath, "__cpu_dispatch__", [])
            if umath.__cpu_features__.get(t)]


def simd_level() -> str:
    """The highest SIMD level numpy dispatches to in this process."""
    return (dispatched_targets() or _dispatch_module().__cpu_baseline__ or ["none"])[-1]


def run_jobs(out_dir: Path) -> dict[str, tuple[int, str]]:
    """Each job through ``cli.main`` with ``--out`` and ``--svg`` into
    ``out_dir``, as ``{stem: (exit code, stderr)}``."""
    results = {}
    for stem, (study, scenario) in JOBS.items():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([study, "--scenario", scenario, "--out",
                             str(out_dir / f"{stem}.csv"), "--svg", str(out_dir / f"{stem}.svg")])
        results[stem] = code, stderr.getvalue()
    return results


def _unit_9th_digit(a: float, b: float) -> float:
    return 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 8)


def _unit_last_place(token: str) -> float:
    mantissa, _, exponent = token.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _is_int(cell: str) -> bool:
    return re.fullmatch(r"-?\d+", cell) is not None


def _floats_close(x: str, y: str) -> bool:
    """Whether two cells are finite floats one unit in the 9th digit apart."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return False
    return a == b or (math.isfinite(a) and math.isfinite(b)
                      and abs(a - b) <= 1.000001 * _unit_9th_digit(a, b))


def csv_cell_problems(golden: str, fresh: str) -> list[str]:
    """Where a fresh CSV departs from its golden file in cell mode."""
    old, new = golden.splitlines(), fresh.splitlines()
    if len(old) != len(new):
        return [f"{len(new)} lines, golden has {len(old)}"]
    body = [i for i, line in enumerate(old) if not line.startswith("#")][1:]
    # A column of integer cells only holds integers; the rest may hold floats.
    int_columns = [all(map(_is_int, column))
                   for column in zip(*(old[i].split(",") for i in body))]
    problems = []
    for i, (a, b) in enumerate(zip(old, new)):
        if a == b:
            continue
        cells = b.split(",")
        if i not in body or len(cells) != len(int_columns) or not all(
                x == y or (not is_int and _floats_close(x, y))
                for x, y, is_int in zip(a.split(","), cells, int_columns)):
            problems.append(f"line {i + 1}: {b!r}, golden {a!r}")
    return problems


def svg_cell_problems(golden: str, fresh: str) -> list[str]:
    """Where a fresh SVG departs from its golden file in cell mode."""
    if SVG_NUMBER.split(golden) != SVG_NUMBER.split(fresh):
        return ["text outside the numbers differs"]
    return [f"number {y!r}, golden {x!r}"
            for x, y in zip(SVG_NUMBER.findall(golden), SVG_NUMBER.findall(fresh))
            if x != y and abs(float(x) - float(y)) > 1.000001 * _unit_last_place(x)]


def golden_mode() -> tuple[bool, str]:
    """Whether this process compares bytes exactly, and a line saying so.
    The line also names the C library, whose libm the scalar path calls;
    the mode does not depend on it."""
    record = json.loads(RECORD.read_text())
    host = {"numpy": np.__version__, "simd": simd_level()}
    exact = host["numpy"] == record["numpy"] and host["simd"] in record["simd"]
    libc = " ".join(platform.libc_ver()).strip() or "unknown libc"
    return exact, (f"golden reports: {'exact' if exact else 'cell'} mode "
                   f"(numpy {host['numpy']}, {host['simd']}, {libc})")


def check_reports(out_dir: Path, exact: bool) -> None:
    """Run the jobs into ``out_dir`` and assert that they match the golden
    files, bytes compared exactly or cell by cell."""
    results = run_jobs(out_dir)
    written = sorted(p.name for p in out_dir.iterdir())
    kept = sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".svg"))
    assert written == kept
    problems = []
    for stem, (code, stderr) in results.items():
        assert "Traceback" not in stderr
        if stem in EXIT_3:
            assert code == 3, (stem, stderr)
            assert stderr.startswith("numerical failure: ")
            continue
        assert code == 0, (stem, stderr)
        for suffix, cell_problems in ((".csv", csv_cell_problems),
                                      (".svg", svg_cell_problems)):
            name = f"{stem}{suffix}"
            golden, fresh = (GOLDEN / name).read_bytes(), (out_dir / name).read_bytes()
            found = (["bytes differ"] if golden != fresh else []) if exact \
                else cell_problems(golden.decode(), fresh.decode())
            problems += [f"{name}: {p}" for p in found[:5]]
    assert not problems, f"{'exact' if exact else 'cell'} mode:\n" + "\n".join(problems)


def level_env(targets: list[str], k: int) -> dict:
    """This process's environment with the dispatch targets from ``targets[k]``
    on disabled, for one child process."""
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets[k:]))


def test_recipe_reports_match_golden(tmp_path, capsys):
    exact, mode = golden_mode()
    with capsys.disabled():
        print(f"\n{mode}")
    check_reports(tmp_path, exact)


def test_recipe_reports_match_golden_at_lower_simd_levels(capsys):
    # One child process per dispatched SIMD level below this one, as
    # _regenerate writes the reports; each compares in its own mode.
    targets = dispatched_targets()
    with capsys.disabled():
        print(f"\n{len(targets)} SIMD levels below {simd_level()}")
    for k in range(len(targets) - 1, -1, -1):
        proc = subprocess.run([sys.executable, __file__, "--check"],
                              env=level_env(targets, k), capture_output=True, text=True)
        with capsys.disabled():
            print(proc.stdout.strip())
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cell_mode_tolerances():
    csv = "# config a = 1\nn,label,x\n12,weak,0.123456789\n13,weak,2.5e-07\n"
    assert not csv_cell_problems(csv, csv.replace("0.123456789", "0.12345679"))
    assert not csv_cell_problems(csv, csv.replace("2.5e-07", "2.50000001e-07"))
    for edit in [("0.123456789", "0.123456791"), ("12,", "13,"), ("weak,0", "strong,0"),
                 ("a = 1", "a = 2"), ("2.5e-07\n", "2.5e-07,1\n")]:
        assert csv_cell_problems(csv, csv.replace(*edit)), edit
    svg = '<line x1="10.25" y1="1e-07" stroke="#1f77b4"/>'
    assert not svg_cell_problems(svg, svg.replace("10.25", "10.24"))
    assert not svg_cell_problems(svg, svg.replace("1e-07", "2e-07"))
    for edit in [("10.25", "10.27"), ("1e-07", "1e-06"), ("#1f77b4", "#1f77b5")]:
        assert svg_cell_problems(svg, svg.replace(*edit)), edit


def test_golden_config_lines_replay_digest():
    for path in sorted(GOLDEN.glob("*.csv")):
        lines = path.read_text().splitlines()
        digest = lines[1].removeprefix("# digest sha256:")
        scenario = JOBS[path.stem][1]
        assert scenario_from_config_lines(lines).digest == digest, path.name
        assert parse_scenario(scenario if path.stem in CORPUS
                              else bundled_path(scenario)).digest == digest, path.name


def _regenerate() -> None:
    """Write the reports at every SIMD level the host dispatches to, check
    that the levels agree byte for byte, replace the golden files, and list
    the files that changed, were added or were removed."""
    targets = dispatched_targets()
    levels = {}
    with tempfile.TemporaryDirectory() as scratch:
        for k in range(len(targets), -1, -1):
            out = Path(scratch) / str(k)
            out.mkdir()
            proc = subprocess.run([sys.executable, __file__, "--write", str(out)],
                                  env=level_env(targets, k), capture_output=True, text=True,
                                  check=True)
            levels[proc.stdout.strip()] = out
        outputs = {level: {p.name: p.read_bytes() for p in out.iterdir()}
                   for level, out in levels.items()}
        first = next(iter(outputs.values()))
        differ = [level for level, files in outputs.items() if files != first]
        if differ:
            raise SystemExit(f"reports differ between SIMD levels: {differ}")
        old = {path.name: path.read_bytes()
               for path in [*GOLDEN.glob("*.csv"), *GOLDEN.glob("*.svg")]}
        for name in old:
            (GOLDEN / name).unlink()
        for name, data in sorted(first.items()):
            (GOLDEN / name).write_bytes(data)
    RECORD.write_text(json.dumps({"numpy": np.__version__, "simd": list(levels)},
                                 indent=2) + "\n")
    print(f"wrote {len(first)} files for numpy {np.__version__} at {list(levels)}")
    for verb, names in (("changed", [n for n in first if n in old and old[n] != first[n]]),
                        ("added", first.keys() - old.keys()),
                        ("removed", old.keys() - first.keys())):
        print(f"{verb}: {', '.join(sorted(names)) or 'none'}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        run_jobs(Path(sys.argv[2]))
        print(simd_level())
    elif sys.argv[1:2] == ["--check"]:
        exact, mode = golden_mode()
        print(mode, flush=True)
        with tempfile.TemporaryDirectory() as out:
            check_reports(Path(out), exact)
    else:
        _regenerate()
