"""In-memory call tracing around the program's public entry points.

The tracer replaces module attributes with timing wrappers, at the names
the calling modules look them up by (``studies.link_timeseries``, not
``channel.link_timeseries``, for the calls ``studies`` makes).  Each call
records its duration and self time (duration minus the time of the
traced calls it made on the same thread).  Hot functions are only
counted and timed; the others also keep a span ``(id, parent, name, t0,
t1)``.  Everything stays in memory until :meth:`Tracer.dump` writes it.

An entry point that no longer exists is skipped, so it reports zero
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

# (module, attribute, layer, keep spans, count items of the result)
TARGETS = (
    ("skyqlink.cli", "main", "cli", True, False),
    ("skyqlink.cli", "parse_scenario", "scenario", True, False),
    ("skyqlink.cli", "parse_scenario_text", "scenario", True, False),
    ("skyqlink.cli", "run_study", "studies", True, False),
    ("skyqlink.cli", "render_svg", "svg", True, False),
    ("skyqlink.studies", "run_study", "studies", True, False),
    ("skyqlink.studies", "StudyReport.to_csv", "studies", True, False),
    ("skyqlink.svg", "render_svg", "svg", True, False),
    ("skyqlink.studies", "propagate_pass", "geometry", True, True),
    ("skyqlink.studies", "static_pass", "geometry", True, True),
    ("skyqlink.studies", "link_timeseries", "channel", True, False),
    ("skyqlink.studies", "system_loss", "channel", False, False),
    ("skyqlink.channel", "system_loss", "channel", False, False),
    ("skyqlink.channel", "background_counts", "channel", False, False),
    ("skyqlink.entanglement", "system_loss", "channel", False, False),
    ("skyqlink.entanglement", "background_counts", "channel", False, False),
    ("skyqlink.studies", "fidelity_sweep", "entanglement", True, False),
    ("skyqlink.studies", "fried_r0", "atmosphere", False, False),
    ("skyqlink.studies", "greenwood_frequency", "atmosphere", False, False),
    ("skyqlink.studies", "scintillation_index", "atmosphere", False, False),
    ("skyqlink.studies", "optimize_params", "finitekey", True, False),
    ("skyqlink.finitekey", "skl", "finitekey", False, False),
)


def merge_stats(into: dict, stats: dict) -> None:
    """Add per-name ``[layer, calls, total, self time, items]`` into ``into``."""
    for name, (layer, calls, total, self_time, items) in stats.items():
        merged = into.setdefault(name, [layer, 0, 0.0, 0.0, 0])
        merged[1] += calls
        merged[2] += total
        merged[3] += self_time
        merged[4] += items


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[dict] = []
        self._ids = itertools.count(1)

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "stats": {}, "spans": []}
            self._local.state = state
            self._threads.append(state)   # list.append is atomic
        return state

    def wrap(self, name: str, layer: str, fn, keep: bool = True,
             count_items: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                stat = state["stats"].get(name)
                if stat is None:
                    stat = state["stats"][name] = [layer, 0, 0.0, 0.0, 0]
                stat[1] += 1
                stat[2] += duration
                stat[3] += duration - frame[1]
                if keep:
                    state["spans"].append(
                        (frame[0], parent[0] if parent else 0, name, t0, t1))
            if count_items:
                stat[4] += len(result)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names wrapped."""
        wrapped = []
        for module_name, attr, layer, keep, count_items in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, leaf, self.wrap(name, layer, fn, keep, count_items))
            wrapped.append(name)
        return wrapped

    def dump(self, path: Path) -> None:
        """Write merged per-name stats and all kept spans as one JSON file."""
        stats: dict = {}
        spans = []
        for state in self._threads:
            merge_stats(stats, state["stats"])
            spans += state["spans"]
        spans.sort()
        Path(path).write_text(json.dumps({"stats": stats, "spans": spans}),
                              encoding="utf-8")
