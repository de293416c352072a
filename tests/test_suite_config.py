"""The suite's own pytest configuration keeps failure reports whole."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while hypothesis
    # reports a failure would abort the run before the next test.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
