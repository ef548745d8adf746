"""Every demo script runs to the end, under the suite's warning filters."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    # in-process, so pyproject's filterwarnings turn a deprecation or runtime warning into a failure
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
