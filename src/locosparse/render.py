"""Grayscale filter-grid rendering to standalone SVG."""

import math
import sys

import numpy as np

from .errors import ConfigError


def render_grid_svg(matrix, cols, cell_px):
    """Render each column of a d x m matrix as a square grayscale tile.

    d must be a perfect square. Tiles are laid out row by row, `cols`
    per row, with no gaps; cell_px is the edge length of one tile in SVG
    user units. Every tile is min-max normalized on its own; constant
    tiles (all-zero columns included) come out uniform mid-gray.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise ConfigError("expected a 2-D matrix of column filters")
    d, m = M.shape
    side = math.isqrt(d)
    if side * side != d:
        raise ConfigError(f"column length {d} is not a perfect square")
    if cols < 1 or not (math.isfinite(cell_px) and cell_px > 0):
        raise ConfigError("cols and cell_px must be positive and finite")
    rows = -(-m // cols)
    # an int past the float range compares exactly but cannot be multiplied
    span = max(cols, rows)
    if span > sys.float_info.max or not math.isfinite(span * cell_px):
        raise ConfigError("canvas size cols * cell_px and rows * cell_px must be finite")
    px = cell_px / side
    width, height = cols * cell_px, rows * cell_px
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
    ]
    for idx in range(m):
        tile = M[:, idx].reshape(side, side)
        lo, hi = float(tile.min()), float(tile.max())
        # a power-of-two scale is exact; 2**-9 keeps 255 * (hi - lo) finite for
        # any finite tile, and a tile whose range needs no scaling keeps scale 1
        s = 1.0 if 255.0 * (hi - lo) < math.inf else 2.0 ** -9
        x0 = (idx % cols) * cell_px
        y0 = (idx // cols) * cell_px
        for r in range(side):
            for c in range(side):
                if hi > lo:
                    level = int(round(255.0 * (s * tile[r, c] - s * lo) / (s * hi - s * lo)))
                else:
                    level = 128
                parts.append(
                    f'<rect x="{_fmt(x0 + c * px)}" y="{_fmt(y0 + r * px)}" '
                    f'width="{_fmt(px)}" height="{_fmt(px)}" '
                    f'fill="#{level:02x}{level:02x}{level:02x}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _fmt(x):
    return f"{x:.6g}"
