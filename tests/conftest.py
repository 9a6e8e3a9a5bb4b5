"""Fixtures shared by the test modules."""
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")


@pytest.fixture
def fresh_python():
    """Runs `python *args` in a new interpreter that imports pdla from this
    checkout, and returns the completed process with its output as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
