"""The pytest settings of this repository keep a failing test's report intact."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe(x):
    assert x < 5
"""


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    """Warnings are errors here, and none raised while Hypothesis reports a failure
    may turn the failure into an INTERNALERROR (exit code 3) that loses the example."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
