"""Bundled figures: every preset sweeps, writes its CSV and SVG, and passes."""

import pytest

from aoci.figures import FIGURE_NUMBERS, run_figure


@pytest.mark.parametrize("number", FIGURE_NUMBERS)
def test_figure_writes_outputs_and_passes(number, tmp_path):
    checks = run_figure(number, tmp_path, mc_n=10_000)
    assert (tmp_path / f"fig{number}.csv").is_file()
    assert (tmp_path / f"fig{number}.svg").is_file()
    assert checks
    assert [c.name for c in checks if not c.passed] == []


def test_unknown_figure_refused(tmp_path):
    with pytest.raises(ValueError):
        run_figure(9, tmp_path)
