"""Smoke test: every in-process example script runs to completion.

``serve_client.py`` is skipped from the list because it needs a running
``repro-map serve``; the service's HTTP surface has its own loopback tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path.name
    for path in (REPO / "examples").glob("*.py")
    if path.name != "serve_client.py"
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
