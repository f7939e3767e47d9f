"""The repo's pytest settings report a failing property test as a failure.

pyproject's `filterwarnings = ["error"]` makes every warning an error.  The
hypothesis plugin warns while it reports a failing @given test
("mypy_extensions.TypedDict is deprecated"); as an error that warning aborted
the session with an INTERNALERROR, so the tests after the failing one never
ran.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out[-3000:]
    assert proc.returncode == 1, out[-3000:]
    assert "1 failed, 1 passed" in proc.stdout, out[-3000:]
