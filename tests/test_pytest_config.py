"""The repository's pytest configuration keeps a session running past a
failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_first_fails(x):
    assert x < 0


@given(st.integers())
def test_second_fails(x):
    assert x > 0


def test_passes():
    pass
'''


def test_failing_property_tests_do_not_abort_the_session(tmp_path):
    (tmp_path / "test_properties.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout, proc.stdout
