"""Bundled figures: every preset sweeps, writes its CSV and SVG, and passes."""

import csv
from pathlib import Path

import pytest

from aoci.figures import FIGURE_NUMBERS, run_figure

DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


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


@pytest.mark.parametrize("number", [3, 4, 5, 6])
def test_point_hashes_match_the_committed_demo_output(number, tmp_path):
    """Every point's config hash, assembled from per-section fragments, is the one
    recorded in demos/output (the hash of the whole canonical document)."""
    run_figure(number, tmp_path)

    def provenance(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        keys = [k for k in rows[0] if k == "config_hash" or k.startswith("axis")]
        return [tuple(row[k] for k in keys) for row in rows]

    want = provenance(DEMO_OUTPUT / f"fig{number}.csv")
    assert len(want) > 1
    assert provenance(tmp_path / f"fig{number}.csv") == want
