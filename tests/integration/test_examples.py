"""Smoke tests for the runnable examples.

The examples are the public face of the library; they must keep
running.  Only the quick ones run here; the rest are compiled, and
CI's bench-smoke job runs all seven to completion.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_detects_the_wake():
    out = _run("quickstart.py")
    assert "anomalous windows detected" in out
    assert "<- wake" in out


def test_deployment_planning_reports_barriers():
    out = _run("deployment_planning.py")
    assert "detection radius" in out
    assert "yes" in out and "NO" in out


def test_external_data_round_trip():
    out = _run("external_data.py")
    assert "archived to" in out
    assert "via CSV" in out


@pytest.mark.parametrize(
    "name",
    ["harbor_surveillance.py", "speed_estimation.py",
     "spectral_analysis.py", "long_term_surveillance.py"],
)
def test_remaining_examples_exist_and_parse(name):
    path = EXAMPLES / name
    assert path.exists()
    compile(path.read_text(), str(path), "exec")
