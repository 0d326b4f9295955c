"""tools/criterion8_values.py on criterion 8's first instance."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "criterion8_values.py"
HEX = r"(-?0x[0-9a-f.]+p[-+]\d+)"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120)


def test_one_instance_prints_each_ratio_bit_for_bit():
    proc = run("1")
    assert proc.returncode == 0, proc.stderr
    *lines, digest = proc.stdout.strip().splitlines()
    assert digest == "sha256 " + hashlib.sha256("\n".join(lines).encode()).hexdigest()
    ratios, zeros = lines[:9], lines[9:]
    keys = []
    for line in ratios:
        row = re.fullmatch(rf"0 (\S+) (interior|corner|global) {HEX} {HEX} {HEX}", line)
        assert row, line
        h, kind, lhs, rhs, ratio = row.groups()
        keys.append((float(h), kind))
        assert float.fromhex(lhs) / float.fromhex(rhs) == float.fromhex(ratio) > 0.0
    assert keys == [(h, kind) for h in (0.12, 0.06, 0.03) for kind in ("interior", "corner", "global")]
    assert zeros == ["zero degenerate 0x0.0p+0 0x0.0p+0"] * 2


def test_nonpositive_count_rejected():
    proc = run("0")
    assert proc.returncode == 2 and "N must be a positive integer" in proc.stderr


def scaled(line, column, factor):
    """``line`` with the number in ``column`` (3: lhs, 4: rhs, 5: ratio) multiplied by ``factor``."""
    parts = line.split()
    parts[column] = (float.fromhex(parts[column]) * factor).hex()
    return " ".join(parts)


def test_compare_reports_the_largest_relative_difference(tmp_path):
    proc = run("1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    cases = {  # saved lines, exit code, largest (lhs, rhs, ratio) differences
        "same": (lines, 0, (0, 0, 0)),
        "within": (lines[:4] + [scaled(lines[4], 5, 1 + 1e-13)] + lines[5:], 0, (0, 0, 1e-13)),
        "above": (lines[:2] + [scaled(lines[2], 3, 1 - 1e-10)] + lines[3:], 1, (1e-10, 0, 0)),
    }
    for name, (saved, code, worst) in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(saved) + "\n")
        got = run("1", "--compare", str(path))
        assert got.returncode == code, (name, got.stdout, got.stderr)
        *printed, last = got.stdout.splitlines()
        assert printed == lines
        row = re.fullmatch(r"compare max_rel_diff lhs (\S+) rhs (\S+) ratio (\S+) bound 1e-12", last)
        assert row and [float(d) for d in row.groups()] == pytest.approx(worst, rel=1e-2), (name, last)
    path = tmp_path / "missing.txt"
    path.write_text("\n".join(lines[1:]) + "\n")
    got = run("1", "--compare", str(path))
    assert got.returncode == 1 and "different ratios" in got.stdout.splitlines()[-1]
