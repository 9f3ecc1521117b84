"""SVG rendering: determinism, geometry, and color partitions."""

from __future__ import annotations

import hashlib
import json
import lzma
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from morsealg import ScanReport, read_report, render_plot, scan, summarize

GOLDEN_DIR = Path(__file__).parent / "golden"
PERFBENCH_DIR = Path(__file__).parent.parent / "perfbench"
_SVG = "{http://www.w3.org/2000/svg}"


def _dots_by_color(svg_text: str, size: int, n_max: int, v_max: int):
    """Recover {color: set of (n, v)} from the rendered dot groups."""
    root = ET.fromstring(svg_text)
    plot_w = size - 72 - 24
    plot_h = size - 48 - 64
    pitch_x = plot_w / (n_max + 1)
    pitch_y = plot_h / (v_max + 1)
    out: dict[str, set[tuple[int, int]]] = {}
    for group in root.findall(f"{_SVG}g"):
        color = group.attrib["fill"]
        cells = set()
        for circle in group.findall(f"{_SVG}circle"):
            cx = float(circle.attrib["cx"])
            cy = float(circle.attrib["cy"])
            n = round((cx - 72) / pitch_x - 0.5)
            v = round((48 + plot_h - cy) / pitch_y - 0.5)
            cells.add((n, v))
        out[color] = cells
    return out


def test_golden_sign_plot(tmp_path):
    report = scan(4, 6)
    out = tmp_path / "sign.svg"
    render_plot(report, "sign", out, size=300)
    assert out.read_bytes() == (GOLDEN_DIR / "sign_4x6_300.svg").read_bytes()


def test_golden_equality_plot(tmp_path):
    report = scan(4, 6)
    out = tmp_path / "equality.svg"
    render_plot(report, "equality", out, size=300)
    assert out.read_bytes() == (GOLDEN_DIR / "equality_4x6_300.svg").read_bytes()


@pytest.fixture(scope="module")
def full_grid_reports(tmp_path_factory):
    """The 101 x 101 benchmark fixture reports, read from each format."""
    reports = {}
    for fmt in ("json", "csv"):
        path = tmp_path_factory.mktemp("fixture") / f"report.{fmt}"
        path.write_bytes(lzma.decompress((PERFBENCH_DIR / "fixtures" / f"report.{fmt}.xz").read_bytes()))
        reports[fmt] = read_report(path)
    return reports


@pytest.mark.parametrize("size", [600, 900, 1200])
@pytest.mark.parametrize("mode", ["equality", "sign"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_full_grid_svg_bytes_match_the_recorded_digests(full_grid_reports, tmp_path, fmt, mode, size):
    expected = json.loads((PERFBENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    out = tmp_path / "plot.svg"
    render_plot(full_grid_reports[fmt], mode, out, size=size)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == expected["report-io"]["svg"][f"{mode}-{size}"]


def test_render_is_deterministic(tmp_path):
    report = scan(3, 8)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_plot(report, "equality", a)
    render_plot(report, "equality", b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_is_well_formed_xml(tmp_path):
    report = scan(2, 3)
    for mode in ("equality", "sign"):
        path = tmp_path / f"{mode}.svg"
        render_plot(report, mode, path, size=480)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag == f"{_SVG}svg"
        assert root.attrib["width"] == "480"


def test_sign_partition_is_the_half_plane(tmp_path):
    n_max, v_max, size = 9, 13, 600
    report = scan(n_max, v_max)
    path = tmp_path / "sign.svg"
    render_plot(report, "sign", path, size=size)
    dots = _dots_by_color(path.read_text(encoding="utf-8"), size, n_max, v_max)
    grid = {(n, v) for n in range(n_max + 1) for v in range(v_max + 1)}
    expected_green = {(n, v) for (n, v) in grid if v >= 2 * n + 1}
    assert dots["#2CA02C"] == expected_green
    assert dots["#FFD700"] == grid - expected_green


def test_equality_colors_gray_out_trivial_cells(tmp_path):
    n_max, v_max, size = 6, 9, 600
    report = scan(n_max, v_max)
    path = tmp_path / "eq.svg"
    render_plot(report, "equality", path, size=size)
    dots = _dots_by_color(path.read_text(encoding="utf-8"), size, n_max, v_max)
    grid = {(n, v) for n in range(n_max + 1) for v in range(v_max + 1)}
    trivial = {(n, v) for (n, v) in grid if v == 2 * n + 1}
    assert dots["#7F7F7F"] == trivial
    assert dots["#1F77B4"] == grid - trivial
    assert "#D62728" not in dots


def test_single_cell_plot(tmp_path):
    report = scan(0, 0)
    path = tmp_path / "one.svg"
    render_plot(report, "sign", path)
    dots = _dots_by_color(path.read_text(encoding="utf-8"), 900, 0, 0)
    assert dots == {"#FFD700": {(0, 0)}}


def test_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        render_plot(scan(0, 0), "heatmap", tmp_path / "x.svg")


def test_rejects_empty_report(tmp_path):
    empty = ScanReport(0, 0, (), summarize(()))
    with pytest.raises(ValueError):
        render_plot(empty, "sign", tmp_path / "x.svg")


def test_rejects_tiny_canvas(tmp_path):
    with pytest.raises(ValueError):
        render_plot(scan(0, 0), "sign", tmp_path / "x.svg", size=100)
