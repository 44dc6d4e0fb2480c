"""Deterministic SVG line plots for study reports.

A minimal plot emitter: fixed 800x600 viewport, linear or log axes, one
polyline per series, embedded legend.  Identical inputs produce
byte-identical documents (no timestamps, no randomness, fixed number
formatting), which the reproduction recipes rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class AxesSpec:
    """What to draw: x column, y columns, optional series grouping.

    ``series_by`` may name one column or a tuple of columns; each distinct
    (combination of) value(s) becomes its own polyline.
    """

    x: str
    ys: tuple[str, ...]
    series_by: str | tuple[str, ...] | None = None
    x_log: bool = False
    y_log: bool = False
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    hlines: tuple[float, ...] = field(default_factory=tuple)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels at the fewest significant digits, 6 to 17, that keep them distinct."""
    for digits in range(6, 18):
        labels = ["%.*g" % (digits, v) for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    # Whole multiples of the step, each float once: the count stays bounded
    # even when the step is below the float spacing of the axis values.
    return list(dict.fromkeys(
        k * step for k in range(math.ceil(lo / step),
                                math.floor((hi + 1e-12 * span) / step) + 1)))


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = min(math.ceil(math.log10(hi)), 308)  # 1e309 overflows a float
    return [10.0**e for e in range(int(lo_exp), int(hi_exp) + 1)
            if lo <= 10.0**e <= hi]


class _Axis:
    def __init__(self, lo: float, hi: float, log: bool, pix_lo: float, pix_hi: float):
        if log:
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            pad = 0.5 * abs(self.lo) + 0.5
            self.lo, self.hi = self.lo - pad, self.hi + pad
        self.log = log
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v: np.ndarray) -> np.ndarray:
        """Pixel positions of an array of values, in the scalar formula's
        operation order, so a linear axis matches Python floats bit for bit.
        A log axis takes libm's ``math.log10`` per value: numpy's SIMD log
        may move bytes between hosts.  Overflow stays as silent as in Python."""
        t = np.array([*map(math.log10, v.tolist())]) if self.log else v
        with np.errstate(over="ignore", invalid="ignore"):
            frac = (t - self.lo) / (self.hi - self.lo)
            return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self) -> list[tuple[float, str]]:
        """Tick pixel positions paired with their labels."""
        ticks = (_log_ticks(10.0**self.lo, 10.0**self.hi) if self.log
                 else _nice_ticks(self.lo, self.hi))
        return list(zip(self.to_pix(np.array(ticks, dtype=float)).tolist(),
                        _tick_labels(ticks)))


def _collect_series(rows: list[dict], spec: AxesSpec
                    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    # Each plotted column becomes one float array; a series takes its rows
    # from it by index.
    cols = {c: np.array([r[c] for r in rows], dtype=float) for c in (spec.x, *spec.ys)}
    if spec.series_by is None:
        groups = [("", slice(None))]
    else:
        by = spec.series_by if isinstance(spec.series_by, tuple) else (spec.series_by,)
        keys = list(zip(*[[r[c] for r in rows] for c in by]))
        # Series in first-seen order, each with its rows in row order.
        first = {k: j for j, k in enumerate(dict.fromkeys(keys))}
        codes = np.array([first[k] for k in keys])
        groups = [("/".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                            for v in k), np.flatnonzero(codes == j))
                  for k, j in first.items()]
    series: list[tuple[str, np.ndarray, np.ndarray]] = []
    for y_col in spec.ys:
        for group_name, index in groups:
            label = y_col if not group_name else (
                f"{y_col} [{group_name}]" if len(spec.ys) > 1 else group_name)
            series.append((label, cols[spec.x][index], cols[y_col][index]))
    return series


def render_svg(rows: list[dict], spec: AxesSpec) -> str:
    """Render rows (list of column dicts) to an SVG document string."""
    if not rows:
        raise ValueError("cannot plot an empty report")
    series = _collect_series(rows, spec)

    xs_all = np.concatenate([xs for _, xs, _ in series])
    ys_all = np.concatenate([ys for _, _, ys in series]
                            + [np.array(spec.hlines, dtype=float)])
    if spec.y_log:
        ys_all = ys_all[ys_all > 0]
        if not ys_all.size:
            raise ValueError("log y axis requires positive data")
    if spec.x_log:
        xs_all = xs_all[xs_all > 0]
        if not xs_all.size:
            raise ValueError("log x axis requires positive data")

    x_axis = _Axis(float(xs_all.min()), float(xs_all.max()), spec.x_log,
                   MARGIN_L, WIDTH - MARGIN_R)
    y_axis = _Axis(float(ys_all.min()), float(ys_all.max()), spec.y_log,
                   HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="25" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{spec.title}</text>')

    # Axes frame and ticks.
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 'fill="none" stroke="black"/>')
    for px, label in x_axis.ticks():
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                     f'y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for py, label in y_axis.ticks():
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    if spec.x_label:
        parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 15}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="13">{spec.x_label}</text>')
    if spec.y_label:
        parts.append(f'<text x="20" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13" '
                     f'transform="rotate(-90 20 {(y0 + y1) / 2:.0f})">'
                     f'{spec.y_label}</text>')

    hlines = np.array([h for h in spec.hlines if not spec.y_log or h > 0], dtype=float)
    for py in y_axis.to_pix(hlines).tolist():
        parts.append(f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x1}" y2="{_fmt(py)}" '
                     'stroke="black" stroke-dasharray="6,4"/>')

    # Series: polyline when >= 2 points, a lone marker otherwise.
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        keep = np.full(xs.shape, True)
        if spec.x_log:
            keep &= xs > 0
        if spec.y_log:
            keep &= ys > 0
        # x and y interleaved, one point after the other.
        pts = np.column_stack((x_axis.to_pix(xs[keep]), y_axis.to_pix(ys[keep])))
        if len(pts) == 1:
            px, py = pts[0].tolist()
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                         f'fill="{color}"/>')
        elif len(pts):
            path = " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')

    # Legend, top-right inside the frame.
    for idx, (label, _, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = y1 + 16 + 16 * idx
        parts.append(f'<line x1="{x1 - 150}" y1="{ly}" x2="{x1 - 125}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x1 - 120}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
