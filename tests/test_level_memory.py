"""tools/level_memory.py on the coarsest witness level."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "level_memory.py"
STAGES = ("mesh", "assemble", "solve_cg", "gradients", "error_report", "scan")


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120)


def test_level_45_prints_each_stage_with_growing_peak():
    proc = run("45")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("level 45: h = 0.0222222, mu = 0.8")
    rows = [re.fullmatch(r"(\w+)\s+([\d.]+) s\s+([\d.]+) MB", line) for line in lines[1:-1]]
    assert all(rows), lines
    assert tuple(r[1] for r in rows) == STAGES
    peaks = [float(r[3]) for r in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0.0
    summary = re.fullmatch(
        r"nv 6481, nt 12727, line (\d+) levels (\d+) iterations, true_residual (\S+), linf (\S+)", lines[-1]
    )
    assert summary, lines[-1]
    levels, iterations, true_residual, linf = summary.groups()
    assert (int(levels), int(iterations)) == (1, 53)
    assert 0.0 < float(true_residual) <= 1e-10 and float(linf) > 0.0


def test_nonpositive_level_rejected():
    proc = run("0")
    assert proc.returncode == 2 and "LEVEL must be a positive integer" in proc.stderr
