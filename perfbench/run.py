"""Benchmark for skyqlink: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's scenario files are
generated from the seed (``gen.py``) and the program runs on them from
outside, as separate processes with ``PYTHONPATH=src``.  Outputs are
checked (``check.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it carries the details (sample counts, tail percentile, machine facts,
problems found), and the same details go to
``.perfbench_work/<workload>/result.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same studies once untraced and once traced
(``spans.py``) and reports the per-layer metrics.  See README.md for the
workloads and the definition of each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gen
from child import more_runs
from spans import merge_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PY = sys.executable
SETUP_PROBES = 5
IMPORT_PROBES = 3
SKL_THREADS = 2
DEADLINE_S = 170.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# Jobs with this many samples in a run are timed by their fastest one;
# see job_times and README.md.
FAST_MIN_SAMPLES = 10
TAIL_PERCENTILES = (99, 95, 75, 50)
SETUP_CODE = ("import sys, skyqlink.cli\n"
              "from skyqlink.scenario import parse_scenario\n"
              "parse_scenario(sys.argv[1])\n")


class Bench:
    """One benchmark run: its work directory, child environment and deadline."""

    def __init__(self, workload: str, seconds: float):
        self.seconds = seconds
        self.work = WORK / workload
        self.started = perf_counter()
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.counter = 0

    def path(self, stem: str) -> Path:
        self.counter += 1
        return self.work / "runs" / f"{self.counter:04d}-{stem}"

    def spawn(self, cmd: list[str], stdout: Path | None = None,
              stderr: Path | None = None) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, seconds, peak RSS MB).

        The seconds are wall time minus the CPU time the hypervisor stole
        from this machine meanwhile (see README.md).  The child is killed
        if it would outlive the run's deadline.
        """
        limit = max(1.0, DEADLINE_S - (perf_counter() - self.started))
        log = self.work / "children.log"
        with open(stdout or log, "ab") as out, open(stderr or log, "ab") as err:
            stolen = steal_ticks()
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            stolen = (steal_ticks() - stolen) / CLOCK_TICKS
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall - stolen, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Cold processes


def setup_probes(bench: Bench, scenario: str) -> list[float]:
    """Cold processes that import the CLI and load the scenario; the first
    one, untimed, fills the bytecode cache."""
    walls = []
    for _ in range(SETUP_PROBES + 1):
        code, wall, _ = bench.spawn([PY, "-c", SETUP_CODE, scenario])
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {bench.work}/children.log")
        walls.append(wall)
    return walls[1:]


def import_split(bench: Bench) -> dict:
    """Self import time per top-level package, median of cold processes."""
    runs = []
    for _ in range(IMPORT_PROBES):
        log = bench.path("importtime.txt")
        code, _, _ = bench.spawn([PY, "-X", "importtime", "-c", "import skyqlink.cli"],
                                 stderr=log)
        if code != 0:
            raise RuntimeError(f"import probe exited {code}; see {log}")
        totals: dict = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            totals[package] = totals.get(package, 0.0) + float(self_us) / 1e6
        runs.append(totals)
    return {pkg: statistics.median(run.get(pkg, 0.0) for run in runs)
            for pkg in ("numpy", "scipy", "skyqlink")}


def cli_args(job: gen.Job, csv: Path, svg: Path, threads: int) -> list[str]:
    common = ["--scenario", job.scenario, "--out", str(csv), "--svg", str(svg)]
    if job.command == "plot":
        return ["plot", "--study", job.study] + common
    if job.study == "skl":
        common += ["--threads", str(threads)]
    return [job.study] + common


def cli_run(bench: Bench, job: gen.Job, traced: bool = False,
            threads: int = SKL_THREADS) -> dict:
    base = bench.path(job.name)
    out = {key: f"{base}.{key}" for key in ("csv", "svg", "rows")}
    cmd = [PY, str(HERE / "child.py"), "cli", out["rows"]]
    if traced:
        out["trace"] = f"{base}.trace.json"
        cmd.append(out["trace"])
    cmd += ["--"] + cli_args(job, Path(out["csv"]), Path(out["svg"]), threads)
    code, wall, rss = bench.spawn(cmd)
    return {"job": job, "code": code, "wall": wall, "rss": rss, **out}


def cold_loop(bench: Bench, jobs: list[gen.Job], seconds: float | None,
              sequence: list[int] | None = None, traced: bool = False):
    """Closed loop of cold CLI processes, one at a time, cycling the jobs
    for ``seconds`` (see ``child.more_runs``), or running exactly the job
    indices in ``sequence``."""
    runs, order = [], []
    start = perf_counter()
    while (len(runs) < len(sequence)) if sequence is not None else more_runs(
            perf_counter() - start, len(runs), seconds):
        index = sequence[len(runs)] if sequence is not None else len(runs) % len(jobs)
        order.append(index)
        runs.append(cli_run(bench, jobs[index], traced))
    return runs, order, perf_counter() - start


def _read_bytes(path: str) -> bytes | None:
    p = Path(path)
    return p.read_bytes() if p.is_file() else None


def output_key(run: dict) -> tuple:
    return (_read_bytes(run["csv"]), _read_bytes(run["svg"]))


def run_checker(bench: Bench, outputs: list[dict]) -> dict:
    """Check one output per job; returns ``{"problems", "rows"}``."""
    manifest = bench.work / "check_manifest.json"
    manifest.write_text(json.dumps({"outputs": outputs}), encoding="utf-8")
    log = bench.path("check.out")
    code, _, _ = bench.spawn([PY, str(HERE / "check.py"), str(manifest)], stdout=log)
    lines = log.read_text(encoding="utf-8").splitlines() if log.is_file() else []
    if code != 0 or not lines:
        return {"problems": {o["job"]["name"]: [f"checker exited {code}"]
                             for o in outputs}, "rows": {}}
    return json.loads(lines[-1])


def judge_cold(bench: Bench, runs: list[dict]) -> tuple[list[bool], dict, dict]:
    """Per-run failure flags, problems per job, and data rows per job.

    A run fails if it exits non-zero, if its bytes differ from its job's
    first run, or if the checker finds a problem in that first output.
    """
    first: dict = {}
    for run in runs:
        if run["code"] == 0:
            first.setdefault(run["job"].name, run)
    checked = run_checker(bench, [
        {"job": r["job"].to_dict(), "csv": r["csv"], "svg": r["svg"], "rows": r["rows"]}
        for r in first.values()])
    problems = {name: list(p) for name, p in checked["problems"].items() if p}
    keys = {name: output_key(r) for name, r in first.items()}
    failed = []
    for run in runs:
        name = run["job"].name
        bad = run["code"] != 0 or name not in first or name in problems
        if not bad and run is not first[name] and output_key(run) != keys[name]:
            problems.setdefault(name, []).append("bytes differ from the first run")
            bad = True
        if run["code"] != 0:
            problems.setdefault(name, []).append(f"exit code {run['code']}")
        failed.append(bad)
    return failed, problems, checked["rows"]


# ---------------------------------------------------------------------------
# The warm api_sweep process


def sweep(bench: Bench, jobs: list[gen.Job], seconds: float, traced: bool):
    manifest = bench.work / "sweep_manifest.json"
    manifest.write_text(json.dumps({"jobs": [j.to_dict() for j in jobs]}), encoding="utf-8")
    out = bench.work / "sweep"
    out.mkdir()
    cmd = [PY, str(HERE / "child.py"), "sweep", str(manifest), str(out), repr(seconds)]
    if traced:
        cmd.append(str(out / "trace.json"))
    code, _, rss = bench.spawn(cmd)
    summary_path = out / "summary.json"
    if code != 0 or not summary_path.is_file():
        raise RuntimeError(f"sweep process exited {code}; see {bench.work}/children.log")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    by_name = {j.name: j for j in jobs}
    seen = {s[0] for s in summary["samples"] if s[2] == "ok"}
    checked = run_checker(bench, [
        {"job": by_name[name].to_dict(), "csv": str(out / f"{name}.csv"),
         "svg": str(out / f"{name}.svg"), "rows": str(out / f"{name}.rows.json")}
        for name in sorted(seen)])
    problems = {name: list(p) for name, p in checked["problems"].items() if p}
    for sample in summary["samples"] + summary.get("traced_samples", []):
        if sample[2] != "ok":
            problems.setdefault(sample[0], []).append(sample[2])
    return summary, rss, problems, checked["rows"], out


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values, p: float) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest of TAIL_PERCENTILES with at least ten of ``n`` samples
    beyond it; 50 when none has."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def job_times(named_walls: list[tuple[str, float]]) -> dict:
    """Each job's time: its fastest sample when it has at least
    FAST_MIN_SAMPLES samples, else the mean of its samples.  README.md
    explains why."""
    by_job: dict = {}
    for name, wall in named_walls:
        by_job.setdefault(name, []).append(wall)
    return {name: min(walls) if len(walls) >= FAST_MIN_SAMPLES else statistics.fmean(walls)
            for name, walls in by_job.items()}


def overhead(untraced: list[tuple[str, float]], traced: list[tuple[str, float]]) -> float:
    """Traced minus untraced time of the same studies, as a share of untraced."""
    return sum(job_times(traced).values()) / sum(job_times(untraced).values()) - 1.0


def end_to_end(setup: list[float], named_walls: list[tuple[str, float]],
               rows_by_job: dict, rss: float) -> tuple[dict, dict]:
    """End-to-end metrics from one run's study samples (job name, seconds).

    The median and the tail are percentiles of the run's study runs, each
    counted at its job's time.
    """
    times = job_times(named_walls)
    counted = [times[name] for name, _ in named_walls]
    cycle = sum(times.values())
    pct = tail_percentile(len(counted))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "study_s_p50": (nearest_rank(counted, 50), "s"),
        "study_s_tail": (nearest_rank(counted, pct), "s"),
        "studies_per_s": (len(times) / cycle, "1/s"),
        "windows_per_s": (sum(rows_by_job.get(n, 0) for n in times) / cycle, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"samples": len(named_walls), "tail_percentile": pct,
              "job_times_s": times, "setup_samples": setup, "walls": named_walls}
    return metrics, detail


def _merge_traces(paths: list[Path]) -> tuple[dict, list[float]]:
    stats: dict = {}
    windows: list[float] = []
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        merge_stats(stats, doc["stats"])
        windows += [t1 - t0 for _, _, name, t0, t1 in doc["spans"]
                    if name == "studies.optimize_params"]
    return stats, windows


def per_layer(stats: dict, windows: list[float], overhead_share: float,
              imports: dict, lines: int) -> dict:
    def calls(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def total(*names):
        return sum(stats[n][2] for n in names if n in stats)

    def layer_self(layer):
        return sum(s[3] for s in stats.values() if s[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    studies_n = calls("cli.run_study", "studies.run_study")
    parses = calls("cli.parse_scenario", "cli.parse_scenario_text")
    renders = ("cli.render_svg", "svg.render_svg")
    n_windows = calls("studies.optimize_params")
    moments = ("studies.fried_r0", "studies.greenwood_frequency",
               "studies.scintillation_index")
    losses = [n for n in stats if n.endswith(".system_loss")]
    return {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.skyqlink_s": (imports["skyqlink"], "s"),
        "scenario.parse_s": (ratio(layer_self("scenario"), parses), "s"),
        "geometry.pass_s": (ratio(layer_self("geometry"), studies_n), "s"),
        "geometry.samples": (ratio(sum(s[4] for s in stats.values()
                                       if s[0] == "geometry"), studies_n), "count"),
        "channel.link_s": (ratio(layer_self("channel"), studies_n), "s"),
        "channel.system_loss_calls": (ratio(calls(*losses), studies_n), "count"),
        "finitekey.window_s_p50": (statistics.median(windows) if windows else 0.0, "s"),
        "finitekey.window_s_max": (max(windows) if windows else 0.0, "s"),
        "finitekey.windows": (ratio(n_windows, studies_n), "count"),
        "finitekey.skl_calls": (ratio(calls("finitekey.skl"), n_windows), "count"),
        "atmosphere.moments_s": (ratio(layer_self("atmosphere"), studies_n), "s"),
        "atmosphere.moment_calls": (ratio(calls(*moments), studies_n), "count"),
        "entanglement.sweep_s": (ratio(layer_self("entanglement"), studies_n), "s"),
        "studies.csv_s": (ratio(total("studies.StudyReport.to_csv"),
                                calls("studies.StudyReport.to_csv")), "s"),
        "svg.render_s": (ratio(total(*renders), calls(*renders)), "s"),
        "studies.self_s": (ratio(layer_self("studies"), studies_n), "s"),
        "cli.self_s": (ratio(layer_self("cli"), studies_n), "s"),
        "trace.overhead_frac": (overhead_share, "fraction"),
        "src.lines": (float(lines), "lines"),
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_ticks() -> int:
    """Clock ticks stolen from this machine's CPUs so far; 0 if unknown."""
    ticks = cpu_ticks()
    return ticks[7] if ticks and len(ticks) > 7 else 0


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor stole from this machine meanwhile."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


# ---------------------------------------------------------------------------
# Workloads


def run_cold_workload(bench: Bench, jobs, checks, trace: bool):
    if not trace:
        setup = setup_probes(bench, jobs[0].scenario)
        runs, _, loop_s = cold_loop(bench, jobs, bench.seconds)
        # Check-only jobs run twice, with 1 and 2 threads; the second run
        # must repeat the first byte for byte.
        repeats = [cli_run(bench, job, threads=threads)
                   for job in checks for threads in (1, SKL_THREADS)]
        failed, problems, rows = judge_cold(bench, runs + repeats)
        measured = [r for r, bad in zip(runs, failed) if not bad] or runs
        metrics, detail = end_to_end(
            setup, [(r["job"].name, r["wall"]) for r in measured], rows,
            max(r["rss"] for r in runs))
        detail["loop_s"] = loop_s
        return metrics, len(runs) + len(repeats), sum(failed), problems, detail

    imports = import_split(bench)
    plain, order, _ = cold_loop(bench, jobs, bench.seconds / 2)
    traced, _, _ = cold_loop(bench, jobs, None, sequence=order, traced=True)
    failed, problems, _ = judge_cold(bench, plain + traced)
    traces = [Path(r["trace"]) for r in traced if Path(r["trace"]).is_file()]
    stats, windows = _merge_traces(traces)
    detail = {"untraced_runs": len(plain), "traced_runs": len(traced),
              "import_split_s": imports, "stats": stats}
    share = overhead([(r["job"].name, r["wall"]) for r in plain],
                     [(r["job"].name, r["wall"]) for r in traced])
    metrics = per_layer(stats, windows, share, imports, src_lines())
    return metrics, len(plain) + len(traced), sum(failed), problems, detail


def run_sweep_workload(bench: Bench, jobs, trace: bool):
    if not trace:
        setup = setup_probes(bench, jobs[0].scenario)
        summary, rss, problems, rows, _ = sweep(bench, jobs, bench.seconds, False)
        samples = summary["samples"]
        failed = [s[2] != "ok" or s[0] in problems for s in samples]
        walls = [(s[0], s[1]) for s, bad in zip(samples, failed) if not bad] \
            or [(s[0], s[1]) for s in samples]
        metrics, detail = end_to_end(setup, walls, rows, rss)
        detail["loop_s"] = summary["loop_s"]
        detail["warm_setup_s"] = summary["warm_setup_s"]
        return metrics, len(samples), sum(failed), problems, detail

    imports = import_split(bench)
    summary, _, problems, _, out = sweep(bench, jobs, bench.seconds / 2, True)
    samples = summary["samples"] + summary["traced_samples"]
    failed = [s[2] != "ok" or s[0] in problems for s in samples]
    stats, windows = _merge_traces([out / "trace.json"])
    detail = {"untraced_runs": len(summary["samples"]),
              "traced_runs": len(summary["traced_samples"]),
              "import_split_s": imports, "stats": stats}
    share = overhead([(s[0], s[1]) for s in summary["samples"]],
                     [(s[0], s[1]) for s in summary["traced_samples"]])
    metrics = per_layer(stats, windows, share, imports, src_lines())
    return metrics, len(samples), sum(failed), problems, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skyqlink" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'skyqlink'} is missing",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seconds)
    shutil.rmtree(bench.work, ignore_errors=True)
    (bench.work / "runs").mkdir(parents=True)
    jobs, checks = gen.generate(args.workload, args.seed, ROOT, bench.work)

    ticks = cpu_ticks()
    if args.workload == "api_sweep":
        metrics, attempted, failed, problems, detail = run_sweep_workload(
            bench, jobs, bool(args.trace))
    else:
        metrics, attempted, failed, problems, detail = run_cold_workload(
            bench, jobs, checks, bool(args.trace))

    correct = failed == 0 and not problems and attempted > 0
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": [j.name for j in jobs],
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems, "steal_share": steal_share(ticks, cpu_ticks()),
        "wall_s": perf_counter() - bench.started, "machine": machine(),
    })
    (bench.work / "result.json").write_text(json.dumps(
        {"detail": detail, "metrics": metrics}, indent=1), encoding="utf-8")
    detail.pop("stats", None)
    detail.pop("walls", None)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
