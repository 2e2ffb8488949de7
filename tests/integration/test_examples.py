"""The example scripts must run (they are part of the public deliverable)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = Path(__file__).resolve().parents[2] / "src"


def run_example(name, *args, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, check=False, env=env)


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py", "--file-mb", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "disk-directed" in proc.stdout
        assert "Mbytes/s" in proc.stdout

    def test_out_of_core_matrix(self):
        proc = run_example("out_of_core_matrix.py", "--slab-mb", "0.25",
                           "--slabs", "2")
        assert proc.returncode == 0, proc.stderr
        assert "sweep took" in proc.stdout

    def test_weather_checkpoint(self):
        proc = run_example("weather_checkpoint.py", "--grid-mb", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "checkpoint" in proc.stdout

    def test_sensitivity_sweep(self):
        proc = run_example("sensitivity_sweep.py", "disks-contiguous",
                           "--file-mb", "0.25")
        assert proc.returncode == 0, proc.stderr
        assert "disks" in proc.stdout

    def test_service_driver(self):
        # The quickstart smoke: tiny stream, heavy-tailed sizes, 8-byte
        # record mix, so the documented example cannot silently rot.
        proc = run_example("service_driver.py", "--requests", "4", "--files",
                           "2", "--file-mb", "0.125", "-K", "2",
                           "--size-dist", "pareto",
                           "--record-sizes", "8,8192")
        assert proc.returncode == 0, proc.stderr
        assert "conservation=ok" in proc.stdout
        assert "VIOLATED" not in proc.stdout
