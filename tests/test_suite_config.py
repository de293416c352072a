"""The suite's own configuration: whole failure reports, declared test imports,
an export list that resolves."""

import ast
import os
import re
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(os.path.dirname(TESTS), "pyproject.toml")

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
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_every_third_party_module_the_tests_import_is_declared():
    # An undeclared import fails collection wherever only the declared
    # extras are installed, and takes every test in that file with it.
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(PYPROJECT, "rb") as f:
        project = tomllib.load(f)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    files = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))
    local = {name[:-3] for name in files} | {"somblocks"}
    imported = set()
    for name in files:
        with open(os.path.join(TESTS, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party >= {"numpy", "pytest", "hypothesis"}
    assert sorted(third_party - declared) == []


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone breaks `from somblocks import *`
    import somblocks
    missing = [name for name in somblocks.__all__ if not hasattr(somblocks, name)]
    assert missing == []
    assert len(set(somblocks.__all__)) == len(somblocks.__all__)
