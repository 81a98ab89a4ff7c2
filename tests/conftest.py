"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# A child under a 60 s limit and a 1 GB address-space limit: an input that
# hangs or builds a huge power on a regression fails its test instead of
# stalling the run or exhausting the machine's memory.
LIMITS = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"


@pytest.fixture
def run_limited():
    """run(code, *args, env={}) runs python -c code with args in a limited child
    and returns the CompletedProcess (text stdout and stderr)."""

    def run(code, *args, env=()):
        return subprocess.run(
            [sys.executable, "-c", LIMITS + code, *args],
            env={**os.environ, "PYTHONPATH": SRC, **dict(env)},
            capture_output=True, text=True, timeout=60,
        )

    return run
