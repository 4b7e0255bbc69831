"""The demos run to completion against the library as it stands, and the
public API resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tzlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_", "06_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo, tmp_path):
    # run in a scratch directory: a demo may write a figure to its cwd
    src = str(Path(tzlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve():
    assert len(tzlab.__all__) == len(set(tzlab.__all__))
    assert [name for name in tzlab.__all__ if not hasattr(tzlab, name)] == []
