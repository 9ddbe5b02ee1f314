"""SVG filter-grid rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from locosparse.errors import ConfigError
from locosparse.render import render_grid_svg

_NS = "{http://www.w3.org/2000/svg}"


def _rects(svg):
    root = ET.fromstring(svg)
    assert root.tag == f"{_NS}svg"
    return root, root.findall(f"{_NS}rect")


def test_svg_parses_and_counts_cells():
    M = np.random.default_rng(0).normal(size=(9, 5))
    svg = render_grid_svg(M, cols=3, cell_px=30.0)
    root, rects = _rects(svg)
    assert len(rects) == 5 * 9
    assert root.get("width") == "90"
    assert root.get("height") == "60"  # 5 filters in rows of 3 -> 2 rows


def test_golden_grayscale_levels():
    # one 2x2 filter with values 0..3: min-max maps to 0, 85, 170, 255
    M = np.array([[0.0], [1.0], [2.0], [3.0]])
    svg = render_grid_svg(M, cols=1, cell_px=2.0)
    _, rects = _rects(svg)
    fills = [r.get("fill") for r in rects]
    assert fills == ["#000000", "#555555", "#aaaaaa", "#ffffff"]
    # row-major layout: the second value sits one pixel to the right
    assert rects[0].get("x") == "0" and rects[0].get("y") == "0"
    assert rects[1].get("x") == "1" and rects[1].get("y") == "0"
    assert rects[2].get("x") == "0" and rects[2].get("y") == "1"


def test_constant_tile_renders_mid_gray():
    M = np.full((4, 2), 7.0)
    svg = render_grid_svg(M, cols=2, cell_px=8.0)
    _, rects = _rects(svg)
    assert {r.get("fill") for r in rects} == {"#808080"}


def test_all_zero_column_renders_mid_gray():
    M = np.zeros((4, 1))
    _, rects = _rects(render_grid_svg(M, 1, 4.0))
    assert {r.get("fill") for r in rects} == {"#808080"}


def test_each_tile_normalized_independently():
    # second column has 10x the range but identical normalized pattern
    col = np.array([0.0, 1.0, 2.0, 3.0])
    M = np.stack([col, 10.0 * col], axis=1)
    svg = render_grid_svg(M, cols=2, cell_px=2.0)
    _, rects = _rects(svg)
    left = [r.get("fill") for r in rects[:4]]
    right = [r.get("fill") for r in rects[4:]]
    assert left == right


def test_tile_range_past_the_float_maximum_renders():
    # hi - lo of the first tile overflows to inf, and 255 * (hi - lo) of the
    # second does; both tiles show the same pattern as its small-scale copy
    M = np.array([[2.0 ** 1023, -2.0 ** 1023, 0.0, 0.0],
                  [2.0 ** 1020, 0.0, 2.0 ** 1019, 0.0]]).T
    _, rects = _rects(render_grid_svg(M, cols=2, cell_px=2.0))
    fills = [r.get("fill") for r in rects]
    assert fills == ["#ffffff", "#000000", "#808080", "#808080",
                     "#ffffff", "#000000", "#808080", "#000000"]
    small = render_grid_svg(M * 2.0 ** -1000, cols=2, cell_px=2.0)
    assert [r.get("fill") for r in _rects(small)[1]] == fills


def test_tile_placement_by_column_index():
    M = np.zeros((4, 3))
    svg = render_grid_svg(M, cols=2, cell_px=10.0)
    _, rects = _rects(svg)
    # tiles 0, 1 occupy the first row; tile 2 wraps to the second
    assert rects[0].get("x") == "0" and rects[0].get("y") == "0"
    assert rects[4].get("x") == "10" and rects[4].get("y") == "0"
    assert rects[8].get("x") == "0" and rects[8].get("y") == "10"


def test_fractional_pixel_sizes_are_formatted_compactly():
    M = np.zeros((9, 1))
    svg = render_grid_svg(M, cols=1, cell_px=10.0)
    _, rects = _rects(svg)
    widths = {r.get("width") for r in rects}
    assert widths == {"3.33333"}


def test_render_contract_errors():
    with pytest.raises(ConfigError):
        render_grid_svg(np.zeros(4), 1, 8.0)
    with pytest.raises(ConfigError):
        render_grid_svg(np.zeros((5, 2)), 1, 8.0)  # 5 not a perfect square
    with pytest.raises(ConfigError):
        render_grid_svg(np.zeros((4, 2)), 0, 8.0)
    for cell in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            render_grid_svg(np.zeros((4, 2)), 1, cell)
