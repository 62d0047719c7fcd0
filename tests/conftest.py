"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

import milnorforge


@pytest.fixture
def run_python_O():
    """Run a script in a fresh `python -O` (asserts stripped) that imports
    this source tree; returns the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(milnorforge.__file__))

    def run(script: str, timeout: float = 120):
        return subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=timeout,
        )

    return run
