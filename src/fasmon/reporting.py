"""CSV and SVG output for experiment rows.

The CSV is the machine-readable contract: fixed header, floats printed with
10 significant digits, ``-inf`` sentinel for a zero jamming power, empty
cells (not zeros) for disabled Monte Carlo columns, newline-terminated.
Emission is byte-deterministic for a given row list, and an emitted file
parses back to the same rows, so emit(parse(emit(rows))) is a fixed point.

The SVG plot is a convenience view of the same rows: one polyline per scheme
against the sweep variable, with labeled axes and a legend.
"""

from __future__ import annotations

import html
import math

from .errors import DomainError
from .experiments import ResultRow

CSV_HEADER = ("experiment,scheme,x_name,x_value,r_star_bits,pm_star_db,"
              "rate_analytic,rate_mc_mean,rate_mc_ci95,clamped")
_COLUMNS = CSV_HEADER.split(",")


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else _fmt(value)


def format_rows(rows) -> str:
    if not rows:
        raise DomainError("no rows to emit")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join((
            row.experiment,
            row.scheme,
            row.x_name,
            _fmt(row.x_value),
            _fmt(row.r_star_bits),
            _fmt(row.pm_star_db),
            _fmt(row.rate_analytic),
            _fmt_opt(row.rate_mc_mean),
            _fmt_opt(row.rate_mc_ci95),
            "true" if row.clamped else "false",
        )))
    return "\n".join(lines) + "\n"


def emit_csv(rows, path: str) -> None:
    text = format_rows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_number(where: str, name: str, cell: str) -> float | None:
    """A numeric cell of column name; a Monte Carlo cell may be empty
    (None). A ValueError names where (path:line) and the column."""
    if cell == "" and name.startswith("rate_mc_"):
        return None
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{where}: {name} is not a number: {cell!r}") from None


def parse_csv(path: str) -> list[ResultRow]:
    """Inverse of emit_csv for files this package wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or wrong CSV header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        where = f"{path}:{lineno}"
        if len(cells) != 10:
            raise ValueError(f"{where}: expected 10 cells, got {len(cells)}")
        if cells[9] not in ("true", "false"):
            raise ValueError(f"{where}: bad clamped flag {cells[9]!r}")
        # the columns are ResultRow's fields, in order
        numbers = [_parse_number(where, name, cell)
                   for name, cell in zip(_COLUMNS[3:9], cells[3:9])]
        rows.append(ResultRow(*cells[:3], *numbers, clamped=cells[9] == "true"))
    return rows


# muted qualitative palette, repeats if more series than colors
_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b9770e", "#17777a")

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 64, 150, 24, 48


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def emit_svg(rows, path: str) -> None:
    """One polyline per scheme: rate_analytic against the sweep variable."""
    if not rows:
        raise DomainError("no rows to plot")
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row.scheme, []).append((row.x_value, row.rate_analytic))

    xs = [row.x_value for row in rows]
    ys = [row.rate_analytic for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT + plot_h}" x2="{px:.1f}" '
                     f'y2="{_MT + plot_h + 5}" stroke="#555"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + plot_h + 18}" font-size="11" '
                     f'text-anchor="middle">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#555"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{yt:.4g}</text>')

    x_label = html.escape(rows[0].x_name, quote=False)
    parts.append(f'<text x="{_ML + plot_w / 2}" y="{_HEIGHT - 10}" '
                 f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{_MT + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {_MT + plot_h / 2})">'
                 'average monitoring rate (bits/s/Hz)</text>')

    for idx, (name, points) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points
                          if math.isfinite(x) and math.isfinite(y))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 14 + 18 * idx
        lx = _ML + plot_w + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{lx + 27}" y="{ly}" font-size="11">'
                     f'{html.escape(name, quote=False)}</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
