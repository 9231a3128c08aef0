"""Shared fixtures: the expensive flip-graph censuses are computed once per
session and reused by the unit and acceptance suites.  Each census records
its own wall-clock build time so runtime criteria can be asserted without
recomputing.  fresh_python runs code in a fresh interpreter and reports its
peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from dominotwist.moves import ComponentReport, flip_components
from dominotwist.regions import make_box, make_cylinder


@dataclass
class TimedCensus:
    report: ComponentReport
    elapsed: float

    def sizes_twists(self) -> list[tuple[int, int]]:
        return [(c.size, c.twist) for c in self.report.components]


def _timed_census(region) -> TimedCensus:
    t0 = time.perf_counter()
    report = flip_components(region)
    return TimedCensus(report, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def census_2222() -> TimedCensus:
    return _timed_census(make_box((2, 2, 2, 2)))


@pytest.fixture(scope="session")
def census_222_n3() -> TimedCensus:
    return _timed_census(make_cylinder(make_box((2, 2, 2)), 3))


@pytest.fixture(scope="session")
def census_222_n4() -> TimedCensus:
    return _timed_census(make_cylinder(make_box((2, 2, 2)), 4))


@pytest.fixture(scope="session")
def census_223_n3() -> TimedCensus:
    return _timed_census(make_cylinder(make_box((2, 2, 3)), 3))


SRC = Path(__file__).resolve().parents[1] / "src"

# Printed last by a fresh_python probe: the interpreter's own peak resident
# set (VmHWM, in kB).  Not ru_maxrss: on Linux a child's ru_maxrss starts at
# its parent's RSS when it was spawned.
PRINT_PEAK = (
    "import re\n"
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
)


def _fresh_python(code: str) -> tuple[list[str], float]:
    """Run `code` in a fresh interpreter that imports dominotwist from this
    checkout; return its output lines and its peak resident set in MB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", code + "\n" + PRINT_PEAK],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    *lines, peak_kb = proc.stdout.splitlines()
    return lines, int(peak_kb) / 1024


@pytest.fixture
def fresh_python():
    return _fresh_python
