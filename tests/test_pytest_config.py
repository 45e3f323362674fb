"""The pytest configuration itself: a failing test must not abort the run."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(min_value=10))
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_fatal(tmp_path):
    """Hypothesis explains a failure with libcst, whose import warns that
    mypy_extensions.TypedDict is deprecated.  Under filterwarnings = error
    that warning must not turn into an INTERNALERROR that ends the run: the
    failing test is counted and the next one still runs."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
