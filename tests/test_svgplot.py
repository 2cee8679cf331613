"""SVG heatmaps: bytes pinned on a small grid, and cells off the colour scale."""

import hashlib
import math
import re

import pytest

from aoci import svgplot

NAN = math.nan
FAILED = "rgb(220,220,220)"  # the fill of a failed point

# sha256 of heatmap's bytes on a 3 x 2 grid, taken before its cells and colour ramp were
# precomputed: a failed (NaN) cell on a linear and on a log scale, and lo == hi on each.
PINNED = {
    "linear": ([[1.0, NAN, 3.0], [4.0, 5.5, -6.0]], False,
               "ef6a88140957106d3c6b3dace04f1e295b851c6162c7c57feaa34f4dffad2c4a"),
    "log": ([[1e10, 3.2e12, NAN], [1e14, 3e11, 2.5e13]], True,
            "e70ebe466f0777af0cc3d20bbe9a5aefee0252ab7e04815b8e2c828479eac539"),
    "flat_linear": ([[2.0, 2.0, NAN], [2.0, 2.0, 2.0]], False,
                    "94f47d6b73c979e7bfa593beccb48cd87a18e5d6db3c28cc482b4531f95e9299"),
    "flat_log": ([[7e9, NAN, 7e9], [7e9, 7e9, 7e9]], True,
                 "70a70f5646071e6b9aaf9007bbb5cb809f30e4c15a62fe780ee7868252ae4f7c"),
}


def _heatmap(path, values, log_values):
    svgplot.heatmap(path, [0.5, 1.0, 2.0], [10.0, 20.0], values, "x & y", "power [mW]",
                    title="a < b", log_values=log_values, provenance="config 0123abcd seed 7")
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_heatmap_bytes_are_pinned(name, tmp_path):
    values, log_values, digest = PINNED[name]
    assert hashlib.sha256(_heatmap(tmp_path / "h.svg", values, log_values)).hexdigest() == digest


def _cell_fills(svg: bytes) -> list[str]:
    """The fills of the grid cells, row by row (a colour bar step's x is a whole pixel)."""
    return re.findall(r'<rect x="\d+\.\d\d" y="[\d.]+" width="[\d.]+" height="[\d.]+" '
                      r'fill="(rgb\([\d,]+\))"/>', svg.decode())


@pytest.mark.parametrize("values,on_scale", [
    ([[0.0, 10.0, 100.0], [1000.0, -5.0, NAN]], [False, True, True, True, False, False]),
    ([[0.0, 10.0, 10.0], [10.0, 10.0, 10.0]], [False, True, True, True, True, True]),
])
def test_a_log_heatmap_draws_values_not_above_zero_as_failed(values, on_scale, tmp_path):
    fills = _cell_fills(_heatmap(tmp_path / "h.svg", values, True))
    assert len(fills) == 6
    for fill, scaled in zip(fills, on_scale):
        assert (fill != FAILED) == scaled, fills
    # The darkest colour stays the real minimum's, and equal values take the mid colour.
    assert fills[1] == (svgplot._viridis(0.0) if values[0][2] == 100.0
                        else svgplot._viridis(0.5))
