"""Deterministic SVG line plots for study reports.

A minimal plot emitter: fixed 800x600 viewport, linear or log axes, one
polyline per series, embedded legend.  Identical inputs produce
byte-identical documents (no timestamps, no randomness, fixed number
formatting), which the reproduction recipes rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    if hi <= lo:
        return [lo]
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
            if lo <= 0:
                raise ValueError("log axis requires positive data")
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            pad = 0.5 * abs(self.lo) + 0.5
            self.lo, self.hi = self.lo - pad, self.hi + pad
        self.log = log
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v: float) -> float:
        t = math.log10(v) if self.log else v
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self) -> list[tuple[float, str]]:
        """Tick values paired with their labels."""
        ticks = (_log_ticks(10.0**self.lo, 10.0**self.hi) if self.log
                 else _nice_ticks(self.lo, self.hi))
        return list(zip(ticks, _tick_labels(ticks)))


def _collect_series(rows: list[dict], spec: AxesSpec) -> list[tuple[str, list, list]]:
    series: list[tuple[str, list, list]] = []
    if spec.series_by is None:
        groups = [("", rows)]
    else:
        by = spec.series_by if isinstance(spec.series_by, tuple) else (spec.series_by,)
        # One pass over the rows; a dict keeps the series in first-seen order.
        by_key: dict[tuple, list[dict]] = {}
        for row in rows:
            by_key.setdefault(tuple([row[c] for c in by]), []).append(row)
        groups = [("/".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                            for v in k), group_rows)
                  for k, group_rows in by_key.items()]
    for y_col in spec.ys:
        for group_name, group_rows in groups:
            label = y_col if not group_name else (
                f"{y_col} [{group_name}]" if len(spec.ys) > 1 else group_name)
            xs = [float(r[spec.x]) for r in group_rows]
            ys = [float(r[y_col]) for r in group_rows]
            series.append((label, xs, ys))
    return series


def render_svg(rows: list[dict], spec: AxesSpec) -> str:
    """Render rows (list of column dicts) to an SVG document string."""
    if not rows:
        raise ValueError("cannot plot an empty report")
    series = _collect_series(rows, spec)

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    ys_all += [h for h in spec.hlines]
    if spec.y_log:
        ys_all = [y for y in ys_all if y > 0]
        if not ys_all:
            raise ValueError("log y axis requires positive data")
    if spec.x_log:
        xs_all = [x for x in xs_all if x > 0]
        if not xs_all:
            raise ValueError("log x axis requires positive data")

    x_axis = _Axis(min(xs_all), max(xs_all), spec.x_log, MARGIN_L, WIDTH - MARGIN_R)
    y_axis = _Axis(min(ys_all), max(ys_all), spec.y_log, HEIGHT - MARGIN_B, MARGIN_T)

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
    for t, label in x_axis.ticks():
        px = x_axis.to_pix(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                     f'y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    for t, label in y_axis.ticks():
        py = y_axis.to_pix(t)
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

    for h in spec.hlines:
        if spec.y_log and h <= 0:
            continue
        py = y_axis.to_pix(h)
        parts.append(f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x1}" y2="{_fmt(py)}" '
                     'stroke="black" stroke-dasharray="6,4"/>')

    # Series: polyline when >= 2 points, a lone marker otherwise.
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(x_axis.to_pix(x), y_axis.to_pix(y)) for x, y in zip(xs, ys)
               if (not spec.x_log or x > 0) and (not spec.y_log or y > 0)]
        if not pts:
            continue
        if len(pts) == 1:
            px, py = pts[0]
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                         f'fill="{color}"/>')
        else:
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
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
