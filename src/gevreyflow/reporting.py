"""Report persistence and plotting.

write_report lays an ExperimentReport out as

    <dir>/report.json        payload + content_hash + wall_clock
    <dir>/series/<name>.csv  one table per series, header row first
    <dir>/runs.jsonl         one appended line per run

The content hash is sha256 over the canonical JSON of the payload alone
(scenario, config echo, series, fits, verdicts); wall_clock is carried
next to the hash, never under it, so re-running an identical config
yields an identical hash.  Canonical JSON sorts keys, uses compact
separators, and rejects NaN/Infinity outright: a payload that cannot be
hashed deterministically is a bug upstream, not something to paper over.

Every series cell is a float, written with repr(), the shortest form that
parses back to the identical double; the csv module quotes per RFC 4180.

plot_series renders one series table to a self-contained SVG: first
column is x, every other column is a curve.  Columns named like bounds
("envelope", "limit", "bound") are drawn dashed so overlays read as
overlays.  Log axes drop nonpositive points, and a table left with none
is drawn on linear axes; a curve reduced to a single point is drawn as a
marker instead of a polyline.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .harness import ExperimentReport
from .records import frozen

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_DASHED_SUFFIXES = ("envelope", "limit", "bound")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def report_payload(report: ExperimentReport) -> dict:
    """The hashable content of a report: everything except wall clock."""
    return {
        "scenario": report.scenario,
        "config": report.config,
        "fits": report.fits,
        "verdicts": {
            name: {"passed": v.passed, "margin": v.margin, "tolerance": v.tolerance}
            for name, v in report.verdicts.items()
        },
        "series": report.series,
        "passed": report.passed,
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def write_series_csv(table: dict, path: Path) -> None:
    columns = list(table)
    if not columns:
        raise ConfigurationError("series has no columns")
    lengths = {len(v) for v in table.values()}
    if len(lengths) != 1:
        raise ConfigurationError(f"series columns have mismatched lengths {sorted(lengths)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*table.values()):
            writer.writerow([repr(cell) for cell in row])


def read_series_csv(path) -> dict:
    """Inverse of write_series_csv for float-valued tables."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty CSV") from None
        table = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ConfigurationError(f"{path}: row width {len(row)} != header width {len(header)}")
            for name, cell in zip(header, row):
                table[name].append(float(cell))
    return table


def write_report(report: ExperimentReport, out_dir) -> Path:
    """Persist one report under out_dir; returns the report.json path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = report_payload(report)
    digest = content_hash(payload)

    document = dict(payload)
    document["content_hash"] = digest
    document["wall_clock"] = report.wall_clock
    report_path = out / "report.json"
    report_path.write_text(json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")

    if report.series:
        series_dir = out / "series"
        series_dir.mkdir(exist_ok=True)
        for name, table in report.series.items():
            if not _NAME_RE.match(name):
                raise ConfigurationError(f"series name {name!r} is not filesystem safe")
            write_series_csv(table, series_dir / f"{name}.csv")

    line = canonical_json({"scenario": report.scenario, "content_hash": digest, "wall_clock": report.wall_clock})
    with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return report_path


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------


@frozen
class PlotStyle:
    """The labels and axis scales of one plot_series figure."""

    title: str = ""
    x_label: str = ""
    x_log: bool = False
    y_log: bool = False
    annotation: str = ""


_WIDTH, _HEIGHT = 640.0, 420.0
_ML, _MR, _MT, _MB = 64.0, 18.0, 30.0, 44.0


def _nice_ticks(lo: float, hi: float) -> list:
    """About 5 ticks at round steps over lo < hi; plot_series pads a flat range."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if (hi - lo) / step <= 5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 0.5 * step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo]


def _log_ticks(lo: float, hi: float) -> list:
    """Whole decades, in log10 units, over lo < hi (as for _nice_ticks)."""
    decades = list(range(math.floor(lo), math.ceil(hi) + 1))
    step = max(1, (len(decades) - 1) // 6)
    return [float(d) for d in decades[::step]]


def _fmt_tick(value: float, log: bool) -> str:
    if log:
        return f"1e{int(value)}"  # _log_ticks gives whole decades
    return f"{value:g}"


def _transform(values, log: bool):
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            out.append(None)
        elif log and v <= 0:
            out.append(None)
        else:
            out.append(math.log10(v) if log else float(v))
    return out


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def plot_series(table: dict, style: PlotStyle = PlotStyle()) -> str:
    """Render one series table (first column x, rest curves) to SVG text,
    on linear axes where the style's log axes would drop every point."""
    columns = list(table)
    if len(columns) < 2:
        raise ConfigurationError("plot needs an x column and at least one curve")
    x_name, y_names = columns[0], columns[1:]
    xs_raw = table[x_name]
    if not xs_raw:
        raise ConfigurationError("plot has no rows")

    xs = _transform(xs_raw, style.x_log)
    curves = {}
    for name in y_names:
        ys = _transform(table[name], style.y_log)
        pts = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if pts:
            curves[name] = pts
    if not curves:
        if style.x_log or style.y_log:
            return plot_series(table, replace(style, x_log=False, y_log=False))
        raise ConfigurationError("no finite points to plot")

    all_x = [p[0] for pts in curves.values() for p in pts]
    all_y = [p[1] for pts in curves.values() for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        pad = max(abs(x_lo) * 0.5, 0.5)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if y_hi == y_lo:
        pad = max(abs(y_lo) * 0.5, 0.5)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w, plot_h = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    x_ticks = _log_ticks(x_lo, x_hi) if style.x_log else _nice_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if style.y_log else _nice_ticks(y_lo, y_hi)
    x_ticks = [t for t in x_ticks if x_lo <= t <= x_hi]
    y_ticks = [t for t in y_ticks if y_lo <= t <= y_hi]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]
    for t in x_ticks:
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT:.2f}" x2="{x:.2f}" y2="{_MT + plot_h:.2f}" stroke="#eeeeee"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 16:.2f}" text-anchor="middle">{_fmt_tick(t, style.x_log)}</text>'
        )
    for t in y_ticks:
        y = py(t)
        parts.append(f'<line x1="{_ML:.2f}" y1="{y:.2f}" x2="{_ML + plot_w:.2f}" y2="{y:.2f}" stroke="#eeeeee"/>')
        parts.append(
            f'<text x="{_ML - 6:.2f}" y="{y + 4:.2f}" text-anchor="end">{_fmt_tick(t, style.y_log)}</text>'
        )
    parts.append(
        f'<rect x="{_ML:.2f}" y="{_MT:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333"/>'
    )

    for i, (name, pts) in enumerate(curves.items()):
        color = _PALETTE[i % len(_PALETTE)]
        dashed = name.lower().endswith(_DASHED_SUFFIXES)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="{color}"/>')
        else:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')

    legend_y = _MT + 14
    for i, name in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 16 * i
        parts.append(f'<line x1="{_ML + plot_w - 110:.2f}" y1="{y - 4:.2f}" x2="{_ML + plot_w - 90:.2f}" '
                     f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + plot_w - 84:.2f}" y="{y:.2f}">{_escape(name)}</text>')

    if style.title:
        parts.append(f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" font-size="14">{_escape(style.title)}</text>')
    if style.x_label:
        parts.append(f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 8:.2f}" text-anchor="middle">{_escape(style.x_label)}</text>')
    if style.annotation:
        parts.append(f'<text x="{_ML + 8:.2f}" y="{_MT + 16:.2f}" fill="#555555">{_escape(style.annotation)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(table: dict, style: PlotStyle, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(plot_series(table, style), encoding="utf-8")
    return path
