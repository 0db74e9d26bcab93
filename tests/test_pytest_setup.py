"""The repository's pytest setup keeps a failing property test's report."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
"""


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["plain", "W-error"])
def test_falsifying_example_is_reported(tmp_path, flags):
    # the repository's root pytest files beside a property test that fails
    for name in ("pyproject.toml", "conftest.py"):
        shutil.copy(ROOT / name, tmp_path / name)
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *flags, "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert run.returncode == 1, out
