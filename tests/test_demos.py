"""Every demo runs to the end with numerical and deprecation warnings as errors."""

from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    proc = run_python("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      str(demo))
    assert proc.returncode == 0, proc.stderr
