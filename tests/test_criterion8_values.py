"""tools/criterion8_values.py on criterion 8's first instance."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

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
