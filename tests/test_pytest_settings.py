"""The suite's pytest settings must not hide what a failing test reports."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
'''


def test_failing_property_shows_its_falsifying_example(tmp_path):
    """Warnings are errors, but not the one hypothesis raises while reporting."""
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output[-3000:]
    assert "Falsifying example" in output, output[-3000:]
    assert "INTERNALERROR" not in output, output[-3000:]
