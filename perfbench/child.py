"""The benchmark's measured processes.

    python3 perfbench/child.py cli ROWS.json [TRACE.json] -- <skyqlink CLI args>
    python3 perfbench/child.py sweep MANIFEST.json OUT_DIR SECONDS [TRACE.json]

``cli`` is one cold CLI process: it runs ``skyqlink.cli.main`` on the
arguments, exactly as ``python -m skyqlink.cli`` would, and writes the
report's rows at full precision to ROWS.json for the output checker.

``sweep`` is the warm ``api_sweep`` process: it imports the package
once, then cycles through the manifest's jobs for SECONDS, each one a
``run_study`` call with default arguments plus ``to_csv`` and
``render_svg``.  It writes every job's first output for the checker, and
a summary whose samples say for each run how long it took and whether
its bytes equalled the job's first output.

With a trace path, ``cli`` runs traced.  ``sweep`` instead repeats, after
its untraced loop, the same sequence of runs traced, so the two can be
compared.  Either writes the tracer's spans and stats to the trace path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def more_runs(elapsed: float, done: int, seconds: float) -> bool:
    """Whether to start another run: always the first, then only while one
    more, at the mean pace so far, would end within ``seconds``."""
    return done == 0 or elapsed * (done + 1) / done <= seconds


def _capture_rows(modules, sink: list) -> None:
    """Keep a copy of each report ``run_study`` returns, at full precision."""
    for module in modules:
        fn = getattr(module, "run_study", None)
        if fn is None:
            continue

        def capturing(*args, _fn=fn, **kwargs):
            report = _fn(*args, **kwargs)
            sink.append(report.rows)
            return report
        module.run_study = capturing


def run_cli(rows_path: str, trace_path: str | None, argv: list[str]) -> int:
    import skyqlink.cli as cli
    import skyqlink.studies as studies

    reports: list = []
    _capture_rows((cli, studies), reports)
    tracer = None
    if trace_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(Path(trace_path))
    if reports:
        Path(rows_path).write_text(json.dumps([list(r) for r in reports[-1]]),
                                   encoding="utf-8")
    return code


def run_sweep(manifest_path: str, out_dir: str, seconds: float,
              trace_path: str | None) -> int:
    started = perf_counter()
    from skyqlink import studies, svg
    from skyqlink.scenario import parse_scenario

    jobs = json.loads(Path(manifest_path).read_text(encoding="utf-8"))["jobs"]
    scenarios = [parse_scenario(job["scenario"]) for job in jobs]
    warm_setup_s = perf_counter() - started

    def one(index: int):
        study = jobs[index]["study"]
        t0 = perf_counter()
        report = studies.run_study(study, scenarios[index])
        csv_text = report.to_csv()
        svg_text = svg.render_svg(report.row_dicts(), studies.PLOT_RECIPES[study])
        return perf_counter() - t0, report.rows, csv_text, svg_text

    out = Path(out_dir)
    first: dict = {}

    def sample(index: int) -> list:
        name = jobs[index]["name"]
        try:
            seconds_taken, rows, csv_text, svg_text = one(index)
        except Exception as exc:   # a failed run is counted, the sweep goes on
            return [name, 0.0, f"{type(exc).__name__}: {exc}"]
        if name not in first:
            first[name] = (csv_text, svg_text)
            (out / f"{name}.csv").write_text(csv_text, encoding="utf-8")
            (out / f"{name}.svg").write_text(svg_text, encoding="utf-8")
            (out / f"{name}.rows.json").write_text(
                json.dumps([list(r) for r in rows]), encoding="utf-8")
            return [name, seconds_taken, "ok"]
        same = first[name] == (csv_text, svg_text)
        return [name, seconds_taken, "ok" if same else "bytes differ from the first run"]

    samples, order = [], []
    loop_start = perf_counter()
    while more_runs(perf_counter() - loop_start, len(samples), seconds):
        index = len(samples) % len(jobs)
        order.append(index)
        samples.append(sample(index))
    loop_s = perf_counter() - loop_start

    summary = {"warm_setup_s": warm_setup_s, "loop_s": loop_s, "samples": samples}
    if trace_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        summary["traced_samples"] = [sample(index) for index in order]
        tracer.dump(Path(trace_path))
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        split = rest.index("--")
        paths, cli_args = rest[:split], rest[split + 1:]
        return run_cli(paths[0], paths[1] if len(paths) > 1 else None, cli_args)
    if mode == "sweep":
        return run_sweep(rest[0], rest[1], float(rest[2]),
                         rest[3] if len(rest) > 3 else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
