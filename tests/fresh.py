"""Fresh interpreters that import this checkout's spdsim.

`run_fresh` runs a script in one. `command_peak_mb` runs `spdsim ARGV` in
one that reads its own VmHWM from /proc/self/status once the command
returns. VmHWM belongs to the address space the new interpreter built, so it
is the command's peak alone. `ru_maxrss` would not do: Linux carries the
parent's peak RSS into the child at exec, so the test runner's RSS would be
its floor.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

# Runs the CLI, then prints VmHWM (kB) as the last line of stderr.
PROGRAM = """
import sys
from spdsim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


def run_fresh(script: str, *argv, timeout: float = 120) -> subprocess.CompletedProcess:
    """Runs `script` with `argv` in a fresh interpreter that imports this
    checkout's spdsim, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)


def command_peak_mb(*argv) -> float:
    """VmHWM, in MiB, of `spdsim ARGV` in a fresh interpreter; the command
    must exit 0. Skips where the OS has no /proc/self/status."""
    if not STATUS.exists():
        pytest.skip("VmHWM needs /proc/self/status")
    proc = run_fresh(PROGRAM, *argv, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1]) / 1024
