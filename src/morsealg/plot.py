"""Deterministic SVG scatter plots of a scan report.

Two modes: equality (did the three eigenvalue computations agree) and sign
(which side of the v = 2n + 1 boundary the cell lies on).  Output is plain
SVG 1.1 text, byte-identical for identical reports and canvas sizes.
"""

from __future__ import annotations

import functools

from .operators import OpClass
from .scan import CellRecord, ScanReport, SignClass

COLOR_EQUAL = "#1F77B4"
COLOR_MISMATCH = "#D62728"
COLOR_TRIVIAL = "#7F7F7F"
COLOR_NON_NEGATIVE = "#2CA02C"
COLOR_NEGATIVE = "#FFD700"

_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 64


def _equality_color(cell: CellRecord) -> str:
    if cell.op_class is not OpClass.PROPER:
        return COLOR_TRIVIAL
    return COLOR_EQUAL if cell.all_equal else COLOR_MISMATCH


def _sign_color(cell: CellRecord) -> str:
    if cell.s_sign is SignClass.NON_NEGATIVE:
        return COLOR_NON_NEGATIVE
    return COLOR_NEGATIVE


_LEGENDS = {
    "equality": (
        (COLOR_EQUAL, "all equal"),
        (COLOR_MISMATCH, "mismatch"),
        (COLOR_TRIVIAL, "trivial or undefined"),
    ),
    "sign": (
        (COLOR_NON_NEGATIVE, "s >= 0"),
        (COLOR_NEGATIVE, "s < 0"),
    ),
}


def render_plot(report: ScanReport, mode: str, path, size: int = 900) -> None:
    """Write the scatter plot of every cell; one dot per (n, v).

    n runs rightward, v upward from a bottom-left origin; ticks every 10.
    """
    if mode not in _LEGENDS:
        raise ValueError(f"unknown plot mode: {mode!r}")
    if not report.cells:
        raise ValueError("cannot plot an empty report")
    if size < 200:
        raise ValueError("canvas too small to hold axes and legend")

    color_of = _equality_color if mode == "equality" else _sign_color
    plot_w = size - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = size - _MARGIN_TOP - _MARGIN_BOTTOM
    cols = report.n_max + 1
    rows = report.v_max + 1
    pitch_x = plot_w / cols
    pitch_y = plot_h / rows
    radius = max(1.2, 0.38 * min(pitch_x, pitch_y))

    def x_of(n: int) -> float:
        return _MARGIN_LEFT + (n + 0.5) * pitch_x

    def y_of(v: int) -> float:
        return _MARGIN_TOP + plot_h - (v + 0.5) * pitch_y

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#FFFFFF"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    bottom = _MARGIN_TOP + plot_h
    for t in range(0, report.n_max + 1, 10):
        x = x_of(t)
        lines.append(
            f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 6}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{bottom + 22}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{t}</text>'
        )
    for t in range(0, report.v_max + 1, 10):
        y = y_of(t)
        lines.append(
            f'<line x1="{_MARGIN_LEFT - 6}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_LEFT - 10}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{t}</text>'
        )
    lines.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{size - 16}" '
        'font-family="sans-serif" font-size="14" text-anchor="middle">n</text>'
    )
    lines.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.2f}" '
        'font-family="sans-serif" font-size="14" text-anchor="middle">v</text>'
    )

    legend_x = float(_MARGIN_LEFT)
    legend_y = 24.0
    for color, label in _LEGENDS[mode]:
        lines.append(f'<circle cx="{legend_x:.2f}" cy="{legend_y:.2f}" r="5.00" fill="{color}"/>')
        text = label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        lines.append(
            f'<text x="{legend_x + 10:.2f}" y="{legend_y + 4:.2f}" '
            f'font-family="sans-serif" font-size="12">{text}</text>'
        )
        legend_x += 24 + 7 * len(label)

    # one pass sorts the dots by color, each color's in cell order; a
    # coordinate's text is formatted once per n and once per v
    dots_of: dict[str, list[str]] = {color: [] for color, _ in _LEGENDS[mode]}
    x_text = functools.cache(lambda n: f"{x_of(n):.2f}")
    y_text = functools.cache(lambda v: f"{y_of(v):.2f}")
    r_text = f"{radius:.2f}"
    for c in report.cells:
        dots_of[color_of(c)].append(f'<circle cx="{x_text(c.n)}" cy="{y_text(c.v)}" r="{r_text}"/>')
    for color, dots in dots_of.items():
        if dots:
            lines.append(f'<g fill="{color}">')
            lines.extend(dots)
            lines.append("</g>")

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
